//! The discrete-event queue.
//!
//! Events are totally ordered by `(time, sequence)`: the sequence number is
//! assigned at insertion, so same-instant events run in insertion order and
//! every run with the same seed replays bit-identically.
//!
//! ## Layout
//!
//! The heap itself holds only compact `(Time, seq, EventId)` keys — 24
//! bytes each — so sift-up/sift-down never moves an [`Event`] payload
//! (which inlines a full [`Packet`] for `Arrive`). Payloads live in a
//! slab indexed by `EventId`; slots freed by `pop` are recycled by the
//! next `push`, so a steady-state run reaches a fixed pool size and stops
//! allocating entirely.
//!
//! ## FIFO lanes
//!
//! Event classes scheduled at a *constant* delay from a monotone clock —
//! packet arrivals (`now + prop_delay`) and control applications
//! (`now + prop_delay + t_r`) — are pushed with non-decreasing due times,
//! so each class is already sorted by construction. [`EventQueue::push_fifo`]
//! appends them to a per-class `VecDeque` lane instead of the heap, and
//! `pop` takes the `(time, seq)`-minimum of the heap root and the lane
//! fronts. Arrivals are roughly half of a saturated run's queue traffic;
//! the lanes replace their `O(log n)` sifts with `O(1)` appends while
//! preserving the exact total order.

use crate::fc::CtrlPayload;
use crate::packet::Packet;
use gfc_core::units::Time;
use gfc_telemetry::CauseToken;
use gfc_topology::NodeId;
use std::collections::VecDeque;

/// A scheduled occurrence.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A data packet finished arriving at `(node, port)`.
    Arrive {
        /// Receiving node.
        node: NodeId,
        /// Receiving port index.
        port: usize,
        /// The packet.
        pkt: Packet,
    },
    /// A flow-control message takes effect at `(node, port)` (arrival plus
    /// the receiver's processing delay `t_r`).
    CtrlApply {
        /// Node whose egress the message controls.
        node: NodeId,
        /// Port index the message arrived on.
        port: usize,
        /// Priority / virtual lane the message addresses.
        prio: u8,
        /// Decoded payload.
        payload: CtrlPayload,
        /// Causal lineage tag (always [`CauseToken::NONE`] when the
        /// causal layer is off); observation-only.
        cause: CauseToken,
    },
    /// Try to start a transmission on `(node, port)`.
    TxKick {
        /// Transmitting node.
        node: NodeId,
        /// Port index.
        port: usize,
    },
    /// The in-flight transmission on `(node, port)` completes.
    TxComplete {
        /// Transmitting node.
        node: NodeId,
        /// Port index.
        port: usize,
    },
    /// Periodic feedback generation on ingress `(node, port)` (CBFC /
    /// time-based GFC).
    PeriodicFeedback {
        /// Node generating feedback.
        node: NodeId,
        /// Ingress port index.
        port: usize,
    },
    /// Re-evaluate a host's flow packetization.
    HostTick {
        /// The host.
        host: NodeId,
    },
    /// Per-flow DCQCN α/increase timer at the source host.
    DcqcnTimer {
        /// The source host.
        host: NodeId,
        /// The flow id.
        flow: u64,
    },
    /// A CNP reaches the source host.
    Cnp {
        /// The source host.
        host: NodeId,
        /// The flow id.
        flow: u64,
    },
    /// Progress / deadlock monitor sample.
    MonitorTick,
    /// Periodic timeline sampler tick (reschedules itself at the
    /// sampler's current — possibly decimation-doubled — cadence).
    TimelineSample,
    /// A finished flow's completion notice reaches the *source* host
    /// (one source→destination propagation delay after the last byte
    /// delivered, like a CNP): the source retires the flow and asks the
    /// workload for a successor. Keeping retirement an event — instead of
    /// mutating the source host inline at the destination — makes flow
    /// completion shardable: the source may live in another domain.
    SourceDone {
        /// The source host.
        host: NodeId,
        /// The flow id.
        flow: u64,
    },
}

impl Event {
    /// Labels for [`Event::class`], indexed by the returned class — the
    /// single source of truth the engine probe's dispatch profile keys
    /// on.
    pub const CLASS_LABELS: [&'static str; 11] = [
        "arrive",
        "ctrl_apply",
        "tx_kick",
        "tx_complete",
        "periodic_feedback",
        "host_tick",
        "dcqcn_timer",
        "cnp",
        "monitor_tick",
        "timeline_sample",
        "source_done",
    ];

    /// Dense per-variant class index (see [`Event::CLASS_LABELS`]).
    pub fn class(&self) -> usize {
        match self {
            Event::Arrive { .. } => 0,
            Event::CtrlApply { .. } => 1,
            Event::TxKick { .. } => 2,
            Event::TxComplete { .. } => 3,
            Event::PeriodicFeedback { .. } => 4,
            Event::HostTick { .. } => 5,
            Event::DcqcnTimer { .. } => 6,
            Event::Cnp { .. } => 7,
            Event::MonitorTick => 8,
            Event::TimelineSample => 9,
            Event::SourceDone { .. } => 10,
        }
    }

    /// Canonical same-instant dispatch rank (see the sharded-engine docs
    /// in `shard.rs`): when several events share a due time, *both*
    /// engines stable-sort the batch by this key before dispatching, so
    /// the dispatch order is a pure function of the events themselves —
    /// not of which queue (or domain) each one waited in. The key packs
    /// `[class | node | port/prio/flow]`; events that tie on it are
    /// dispatched in insertion order, which the single-causal-source
    /// argument (one upstream peer per `(node, port)`, one destination
    /// per flow) makes engine-independent. The monitor ranks first so a
    /// deadlock verdict halts before any same-instant work, exactly like
    /// the coordinator's barrier.
    pub fn order_major(&self) -> u64 {
        #[inline]
        fn key(class: u64, node: NodeId, sub: u64) -> u64 {
            debug_assert!(node.0 < (1 << 20), "node id exceeds the dispatch-rank field");
            debug_assert!(sub < (1 << 40), "sub-key exceeds the dispatch-rank field");
            (class << 60) | (u64::from(node.0) << 40) | sub
        }
        const FLOW_MASK: u64 = (1 << 40) - 1;
        match *self {
            Event::MonitorTick => 0,
            Event::TimelineSample => 1,
            Event::Arrive { node, port, .. } => key(2, node, port as u64),
            Event::CtrlApply { node, port, prio, .. } => {
                key(3, node, ((port as u64) << 8) | u64::from(prio))
            }
            Event::TxKick { node, port } => key(4, node, port as u64),
            Event::TxComplete { node, port } => key(5, node, port as u64),
            Event::PeriodicFeedback { node, port } => key(6, node, port as u64),
            Event::HostTick { host } => key(7, host, 0),
            Event::DcqcnTimer { host, flow } => key(8, host, flow & FLOW_MASK),
            Event::Cnp { host, flow } => key(9, host, flow & FLOW_MASK),
            Event::SourceDone { host, flow } => key(10, host, flow & FLOW_MASK),
        }
    }
}

/// Always-on scheduler counters: how pushes split between the inline
/// slot encoding and the payload pool, and how often the pool had to
/// grow instead of recycling a freed slot. Three unconditional `u64`
/// increments per push — cheap enough to never gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Pushes carried in the slot word (no pool round-trip).
    pub pushes_inline: u64,
    /// Pushes that took a payload-pool slot (recycled or fresh).
    pub pushes_pooled: u64,
    /// Pool slots allocated because the free list was empty.
    pub pool_grown: u64,
}

/// Index of a pooled event payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventId(u32);

/// A heap key: total order by `(time, seq)`; the slot word tags the
/// payload and never decides a comparison (seqs are unique). With the
/// [`INLINE`] bit set the slot *is* the payload (see [`encode_inline`]);
/// otherwise it is an [`EventId`] into the pool.
type Key = (Time, u64, u32);

/// Slot-word flag: the event is encoded in the slot itself, no pooled
/// payload. Payload-free events — `TxComplete`, `TxKick`,
/// `PeriodicFeedback`, `HostTick`, and the tick singletons — are half of
/// a congested run's queue traffic; carrying them in the key skips the
/// pool round-trip entirely (the pop-side read of a random pool slot is
/// a near-guaranteed cache miss).
const INLINE: u32 = 1 << 31;

/// Pack a payload-free event into a slot word: 3 tag bits, 18 node bits,
/// 10 port bits. Events that don't fit (a payload-carrying variant, or a
/// gargantuan topology) take the pool path — correctness never depends
/// on inlining.
fn encode_inline(ev: &Event) -> Option<u32> {
    let (tag, node, port) = match *ev {
        Event::TxComplete { node, port } => (0, node.0, port),
        Event::TxKick { node, port } => (1, node.0, port),
        Event::PeriodicFeedback { node, port } => (2, node.0, port),
        Event::HostTick { host } => (3, host.0, 0),
        Event::MonitorTick => (4, 0, 0),
        Event::TimelineSample => (5, 0, 0),
        _ => return None,
    };
    (node < (1 << 18) && port < (1 << 10))
        .then_some(INLINE | (tag << 28) | (node << 10) | port as u32)
}

/// Invert [`encode_inline`].
fn decode_inline(code: u32) -> Event {
    let tag = (code >> 28) & 0x7;
    let node = NodeId((code >> 10) & 0x3_FFFF);
    let port = (code & 0x3FF) as usize;
    match tag {
        0 => Event::TxComplete { node, port },
        1 => Event::TxKick { node, port },
        2 => Event::PeriodicFeedback { node, port },
        3 => Event::HostTick { host: node },
        4 => Event::MonitorTick,
        _ => Event::TimelineSample,
    }
}

/// Min-heap of `(time, seq)`-ordered keys over a slab of event payloads.
///
/// The heap is 4-ary: half the depth of a binary heap, and the four
/// children of a node sit in at most two cache lines, so the pop-side
/// sift touches roughly half the memory of `std::collections::BinaryHeap`
/// — measurably faster at the queue depths the fat-tree sweeps reach.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: Vec<Key>,
    /// Constant-delay FIFO lanes (see the module docs); sorted by
    /// construction, merged with the heap at pop time.
    lanes: [VecDeque<Key>; Self::NUM_LANES],
    pool: Vec<Option<Event>>,
    free: Vec<EventId>,
    seq: u64,
    stats: QueueStats,
}

impl EventQueue {
    /// Lane for data-packet arrivals (`now + prop_delay`).
    pub const LANE_ARRIVE: usize = 0;
    /// Lane for wire control applications (`now + prop_delay + t_r`).
    pub const LANE_CTRL: usize = 1;
    /// Lane for out-of-band (conceptual) control applications (`now + τ`).
    pub const LANE_CTRL_OOB: usize = 2;
    /// Number of FIFO lanes.
    pub const NUM_LANES: usize = 3;

    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `ev`: inline-encode it into the slot word, or park it in
    /// the pool.
    fn alloc_slot(&mut self, ev: Event) -> u32 {
        match encode_inline(&ev) {
            Some(code) => {
                self.stats.pushes_inline += 1;
                code
            }
            None => {
                self.stats.pushes_pooled += 1;
                match self.free.pop() {
                    Some(id) => {
                        debug_assert!(
                            self.pool[id.0 as usize].is_none(),
                            "free slot still occupied"
                        );
                        self.pool[id.0 as usize] = Some(ev);
                        id.0
                    }
                    None => {
                        let id = u32::try_from(self.pool.len()).expect("event pool overflow");
                        assert!(id < INLINE, "event pool overflow");
                        self.stats.pool_grown += 1;
                        self.pool.push(Some(ev));
                        id
                    }
                }
            }
        }
    }

    /// Schedule `ev` at time `t`.
    pub fn push(&mut self, t: Time, ev: Event) {
        self.seq += 1;
        let slot = self.alloc_slot(ev);
        self.heap.push((t, self.seq, slot));
        self.sift_up(self.heap.len() - 1);
    }

    /// Schedule `ev` at time `t` on FIFO `lane`. The caller guarantees
    /// `lane`'s due times never decrease (a constant delay from the
    /// monotone simulation clock); ordering relative to every other event
    /// is identical to [`EventQueue::push`].
    pub fn push_fifo(&mut self, lane: usize, t: Time, ev: Event) {
        self.seq += 1;
        debug_assert!(
            self.lanes[lane].back().is_none_or(|&(bt, _, _)| bt <= t),
            "lane {lane} pushed out of time order"
        );
        let slot = self.alloc_slot(ev);
        self.lanes[lane].push_back((t, self.seq, slot));
    }

    /// The source holding the earliest key: a lane index, or
    /// `NUM_LANES` for the heap.
    fn min_source(&self) -> Option<(usize, Key)> {
        let mut best = self.heap.first().map(|&k| (Self::NUM_LANES, k));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(&k) = lane.front() {
                if best.is_none_or(|(_, b)| k < b) {
                    best = Some((i, k));
                }
            }
        }
        best
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        let (src, key) = self.min_source()?;
        self.pop_from(src, key)
    }

    fn pop_from(&mut self, src: usize, (t, _, slot): Key) -> Option<(Time, Event)> {
        if src < Self::NUM_LANES {
            self.lanes[src].pop_front();
        } else {
            let last = self.heap.pop().expect("nonempty");
            if !self.heap.is_empty() {
                self.heap[0] = last;
                self.sift_down(0);
            }
        }
        let ev = if slot & INLINE != 0 { decode_inline(slot) } else { self.take(EventId(slot)) };
        Some((t, ev))
    }

    /// Remove and return the earliest event if it is due at or before
    /// `horizon` — the event loop's single-call replacement for the
    /// peek-then-pop pattern.
    pub fn pop_at_or_before(&mut self, horizon: Time) -> Option<(Time, Event)> {
        let (src, key) = self.min_source()?;
        if key.0 > horizon {
            return None;
        }
        self.pop_from(src, key)
    }

    /// Restore the heap property upward from `i` (new last element).
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.heap[i] < self.heap[parent] {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// Restore the heap property downward from `i` (replaced root).
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let first_child = 4 * i + 1;
            if first_child >= len {
                return;
            }
            let mut min = first_child;
            for c in (first_child + 1)..(first_child + 4).min(len) {
                if self.heap[c] < self.heap[min] {
                    min = c;
                }
            }
            if self.heap[min] < self.heap[i] {
                self.heap.swap(i, min);
                i = min;
            } else {
                return;
            }
        }
    }

    fn take(&mut self, id: EventId) -> Event {
        let ev = self.pool[id.0 as usize].take().expect("heap key without pooled payload");
        self.free.push(id);
        ev
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.min_source().map(|(_, (t, _, _))| t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lanes.iter().all(VecDeque::is_empty)
    }

    /// Total payload slots ever allocated (occupied + recycled). A
    /// steady-state run converges to its high-water pending count and
    /// stops growing — observable in tests and capacity planning.
    pub fn pool_slots(&self) -> usize {
        self.pool.len()
    }

    /// Payload slots currently free (on the recycle list).
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Keys currently in the heap (excludes the FIFO lanes).
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Pending keys per FIFO lane, in lane order.
    pub fn lane_lens(&self) -> [usize; Self::NUM_LANES] {
        [self.lanes[0].len(), self.lanes[1].len(), self.lanes[2].len()]
    }

    /// The always-on push counters (see [`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time(30), Event::MonitorTick);
        q.push(Time(10), Event::MonitorTick);
        q.push(Time(20), Event::MonitorTick);
        assert_eq!(q.pop().unwrap().0, Time(10));
        assert_eq!(q.pop().unwrap().0, Time(20));
        assert_eq!(q.pop().unwrap().0, Time(30));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        q.push(Time(5), Event::TxKick { node: NodeId(1), port: 0 });
        q.push(Time(5), Event::TxKick { node: NodeId(2), port: 0 });
        match q.pop().unwrap().1 {
            Event::TxKick { node, .. } => assert_eq!(node, NodeId(1)),
            _ => unreachable!(),
        }
        match q.pop().unwrap().1 {
            Event::TxKick { node, .. } => assert_eq!(node, NodeId(2)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn peek_does_not_pop() {
        let mut q = EventQueue::new();
        q.push(Time(7), Event::MonitorTick);
        assert_eq!(q.peek_time(), Some(Time(7)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn same_instant_fifo_survives_slot_recycling() {
        // Interleave pushes and pops so later pushes land in *recycled*
        // pool slots with lower EventId than live earlier events:
        // insertion order must still win at equal times. `Cnp` is a
        // pooled (not inline-encoded) variant.
        let mut q = EventQueue::new();
        for flow in 0..4u64 {
            q.push(Time(100), Event::Cnp { host: NodeId(0), flow });
        }
        // Drain two earlier events to free pool slots, then push two
        // more same-instant events into those recycled slots.
        q.push(Time(1), Event::Cnp { host: NodeId(0), flow: 90 });
        q.push(Time(2), Event::Cnp { host: NodeId(0), flow: 91 });
        assert_eq!(q.pop().unwrap().0, Time(1));
        assert_eq!(q.pop().unwrap().0, Time(2));
        for flow in 4..6u64 {
            q.push(Time(100), Event::Cnp { host: NodeId(0), flow });
        }
        for expect in 0..6u64 {
            match q.pop().unwrap() {
                (t, Event::Cnp { flow, .. }) => {
                    assert_eq!(t, Time(100));
                    assert_eq!(flow, expect, "same-instant FIFO violated");
                }
                other => unreachable!("unexpected event {other:?}"),
            }
        }
        assert!(q.is_empty());
    }

    #[test]
    fn payload_free_events_skip_the_pool() {
        let mut q = EventQueue::new();
        q.push(Time(1), Event::TxComplete { node: NodeId(7), port: 3 });
        q.push(Time(2), Event::TxKick { node: NodeId(200_000), port: 9 });
        q.push(Time(3), Event::HostTick { host: NodeId(11) });
        q.push(Time(4), Event::MonitorTick);
        assert_eq!(q.pool_slots(), 0, "inline-encodable events must not allocate pool slots");
        assert_eq!(
            q.pop().unwrap().1,
            Event::TxComplete { node: NodeId(7), port: 3 },
            "inline round-trip"
        );
        assert_eq!(q.pop().unwrap().1, Event::TxKick { node: NodeId(200_000), port: 9 });
        assert_eq!(q.pop().unwrap().1, Event::HostTick { host: NodeId(11) });
        assert_eq!(q.pop().unwrap().1, Event::MonitorTick);
        // Out-of-range coordinates overflow the 18-bit node / 10-bit port
        // fields and must fall back to the pool unharmed.
        q.push(Time(5), Event::TxKick { node: NodeId(1 << 20), port: 2000 });
        assert_eq!(q.pool_slots(), 1);
        assert_eq!(q.pop().unwrap().1, Event::TxKick { node: NodeId(1 << 20), port: 2000 });
    }

    #[test]
    fn fifo_lanes_merge_in_total_order() {
        // Interleave heap pushes with lane pushes at equal and distinct
        // times: pops must follow (time, insertion seq) exactly as if
        // everything had gone through the heap.
        let mut q = EventQueue::new();
        q.push(Time(10), Event::TxComplete { node: NodeId(1), port: 0 }); // seq 1
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(10), arrive(2)); // seq 2
        q.push(Time(5), Event::TxComplete { node: NodeId(3), port: 0 }); // seq 3
        q.push_fifo(EventQueue::LANE_CTRL, Time(10), Event::Cnp { host: NodeId(4), flow: 0 }); // 4
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(12), arrive(5)); // seq 5
        let order: Vec<Time> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![Time(5), Time(10), Time(10), Time(10), Time(12)]);

        let mut q = EventQueue::new();
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(10), arrive(1));
        q.push(Time(10), Event::TxComplete { node: NodeId(2), port: 0 });
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(10), arrive(3));
        // Same instant: lane, heap, lane — insertion order must win.
        for expect in [1, 2, 3u32] {
            match q.pop().unwrap().1 {
                Event::Arrive { node, .. } | Event::TxComplete { node, .. } => {
                    assert_eq!(node, NodeId(expect), "same-instant cross-source FIFO violated");
                }
                other => unreachable!("unexpected event {other:?}"),
            }
        }
        assert!(q.is_empty());
    }

    /// A minimal pooled `Arrive` for lane tests.
    fn arrive(node: u32) -> Event {
        Event::Arrive {
            node: NodeId(node),
            port: 0,
            pkt: crate::packet::Packet {
                id: 0,
                flow: 0,
                src: NodeId(0),
                dst: NodeId(node),
                bytes: 1500,
                prio: 0,
                path: std::sync::Arc::from(vec![].into_boxed_slice()),
                hop: 0,
                ecn_marked: false,
            },
        }
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(Time(10), Event::MonitorTick);
        q.push(Time(20), Event::MonitorTick);
        assert!(q.pop_at_or_before(Time(5)).is_none());
        assert_eq!(q.pop_at_or_before(Time(10)).unwrap().0, Time(10));
        assert_eq!(q.pop_at_or_before(Time(30)).unwrap().0, Time(20));
        assert!(q.pop_at_or_before(Time(u64::MAX)).is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn class_indices_match_labels() {
        // Every variant maps into the label table, and distinct variants
        // get distinct classes.
        let events = [
            arrive(1),
            Event::CtrlApply {
                node: NodeId(0),
                port: 0,
                prio: 0,
                payload: CtrlPayload::GfcStage(1),
                cause: CauseToken::NONE,
            },
            Event::TxKick { node: NodeId(0), port: 0 },
            Event::TxComplete { node: NodeId(0), port: 0 },
            Event::PeriodicFeedback { node: NodeId(0), port: 0 },
            Event::HostTick { host: NodeId(0) },
            Event::DcqcnTimer { host: NodeId(0), flow: 0 },
            Event::Cnp { host: NodeId(0), flow: 0 },
            Event::MonitorTick,
            Event::TimelineSample,
            Event::SourceDone { host: NodeId(0), flow: 0 },
        ];
        let classes: Vec<usize> = events.iter().map(Event::class).collect();
        assert_eq!(classes, (0..Event::CLASS_LABELS.len()).collect::<Vec<_>>());
        assert_eq!(Event::CLASS_LABELS[events[0].class()], "arrive");
    }

    #[test]
    fn dispatch_rank_puts_monitor_first_and_separates_coordinates() {
        // The monitor outranks (sorts before) every other same-instant
        // event, and distinct (class, node, port) coordinates get
        // distinct ranks — the properties the canonical batch sort needs.
        assert!(Event::MonitorTick.order_major() < Event::TimelineSample.order_major());
        assert!(Event::TimelineSample.order_major() < arrive(0).order_major());
        let a = Event::TxComplete { node: NodeId(3), port: 1 };
        let b = Event::TxComplete { node: NodeId(3), port: 2 };
        let c = Event::TxComplete { node: NodeId(4), port: 1 };
        let d = Event::TxKick { node: NodeId(3), port: 1 };
        assert!(a.order_major() < b.order_major());
        assert!(b.order_major() < c.order_major());
        assert_ne!(a.order_major(), d.order_major());
        // Within a class, node is the most significant coordinate.
        assert!(
            Event::Arrive { node: NodeId(1), port: 9, pkt: pkt(1) }.order_major()
                < Event::Arrive { node: NodeId(2), port: 0, pkt: pkt(2) }.order_major()
        );
    }

    /// A minimal packet for rank tests.
    fn pkt(node: u32) -> crate::packet::Packet {
        match arrive(node) {
            Event::Arrive { pkt, .. } => pkt,
            _ => unreachable!(),
        }
    }

    #[test]
    fn push_counters_split_inline_vs_pooled() {
        let mut q = EventQueue::new();
        q.push(Time(1), Event::MonitorTick); // inline
        q.push(Time(2), Event::Cnp { host: NodeId(0), flow: 0 }); // pool grows
        q.pop().unwrap();
        q.pop().unwrap();
        q.push(Time(3), Event::Cnp { host: NodeId(0), flow: 1 }); // recycled
        let s = q.stats();
        assert_eq!(s.pushes_inline, 1);
        assert_eq!(s.pushes_pooled, 2);
        assert_eq!(s.pool_grown, 1, "second pooled push must recycle, not grow");
        assert_eq!(q.heap_len(), 1);
        assert_eq!(q.lane_lens(), [0, 0, 0]);
        assert_eq!(q.free_slots(), 0);
        q.pop().unwrap();
        assert_eq!(q.free_slots(), 1);
    }

    #[test]
    fn pool_slots_are_recycled() {
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.push(Time(i), Event::Cnp { host: NodeId(0), flow: i });
        }
        assert_eq!(q.pool_slots(), 8);
        for _ in 0..8 {
            q.pop().unwrap();
        }
        // A second wave of the same pending depth reuses the freed slots.
        for i in 0..8 {
            q.push(Time(100 + i), Event::Cnp { host: NodeId(0), flow: i });
        }
        assert_eq!(q.pool_slots(), 8, "freed slots must be recycled, not leaked");
        assert_eq!(q.len(), 8);
    }
}
