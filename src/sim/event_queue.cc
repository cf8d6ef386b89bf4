#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace ntier::sim {

EventQueue::EventQueue() {
  for (auto& level : wheel_head_)
    for (auto& head : level) head = kNil;
  for (auto& level : wheel_bits_)
    for (auto& word : level) word = 0;
}

// O(1) for pending events anywhere; the location tag picks the cheapest
// removal (wheel splice / batch generation-skip / indexed heap erase).
void EventHandle::cancel() {
  if (!pending()) return;
  EventQueue& q = *owner_;
  switch (q.meta_[slot_].where) {
    case EventQueue::kLocHeap:
      q.heap_erase(q.meta_[slot_].pos);
      break;
    case EventQueue::kLocWheel:
      q.wheel_unlink(slot_);
      q.fns_[slot_].reset();
      q.free_slot(slot_);
      --q.live_;
      break;
    case EventQueue::kLocBatch:
      q.fns_[slot_].reset();
      q.free_slot(slot_);
      --q.live_;
      assert(q.batch_live_ > 0);
      --q.batch_live_;
      break;
    default:
      assert(false && "pending event with no residence");
  }
}

std::uint32_t EventQueue::alloc_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t slot = free_head_;
    free_head_ = meta_[slot].next;
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(meta_.size());
  meta_.emplace_back();
  fns_.emplace_back();
  return slot;
}

void EventQueue::reserve(std::size_t n) {
  // Free slots are reused before the table grows, so live_ + n slots
  // hold every event pushed next.
  meta_.reserve(live_ + n);
  fns_.reserve(live_ + n);
}

void EventQueue::free_slot(std::uint32_t slot) {
  Meta& m = meta_[slot];
  ++m.gen;  // invalidate outstanding handles
  m.where = kLocFree;
  m.next = free_head_;
  free_head_ = slot;
}

void EventQueue::wheel_link(std::uint32_t slot, int level, std::uint32_t idx) {
  Meta& m = meta_[slot];
  m.where = kLocWheel;
  m.pos = (static_cast<std::uint32_t>(level) << kSlotBits) | idx;
  m.prev = kNil;
  m.next = wheel_head_[level][idx];
  if (m.next != kNil) meta_[m.next].prev = slot;
  wheel_head_[level][idx] = slot;
  wheel_bits_[level][idx >> 6] |= 1ull << (idx & 63);
  ++wheel_count_;
}

void EventQueue::wheel_unlink(std::uint32_t slot) {
  Meta& m = meta_[slot];
  const int level = static_cast<int>(m.pos >> kSlotBits);
  const std::uint32_t idx = m.pos & kSlotMask;
  if (m.prev != kNil)
    meta_[m.prev].next = m.next;
  else
    wheel_head_[level][idx] = m.next;
  if (m.next != kNil) meta_[m.next].prev = m.prev;
  if (wheel_head_[level][idx] == kNil)
    wheel_bits_[level][idx >> 6] &= ~(1ull << (idx & 63));
  --wheel_count_;
  // Removing the cached minimum invalidates the cache; removing any
  // later event leaves it exact.
  if (!wheel_dirty_ && m.when.count_micros() == wheel_next_cache_)
    wheel_dirty_ = true;
}

void EventQueue::place(std::uint32_t slot, Time when) {
  const std::int64_t w = when.count_micros();
  if (w > cur_) {
    // Level = position of the highest bit in which `when` differs from
    // the current tick: the finest level whose slot for `when` has not
    // yet been passed. Beyond kLevels*kSlotBits bits lies the horizon.
    const std::uint64_t x =
        static_cast<std::uint64_t>(w) ^ static_cast<std::uint64_t>(cur_);
    const int level = (63 - std::countl_zero(x)) / kSlotBits;
    if (level < kLevels) {
      wheel_link(slot, level, digit(w, level));
      if (!wheel_dirty_ && w < wheel_next_cache_) wheel_next_cache_ = w;
      return;
    }
  }
  // At/before the current tick, or beyond the wheel horizon: the 4-ary
  // heap handles arbitrary times in O(log n).
  meta_[slot].where = kLocHeap;
  heap_.emplace_back();  // make room; sift_up fills the final slot
  sift_up(Entry{when, meta_[slot].seq, slot}, heap_.size() - 1);
}

EventHandle EventQueue::push(Time when, EventFn&& fn) {
  // Scheduling earlier than the tick currently being drained would
  // reorder history; the Simulation facade's `when >= now()` assert is
  // strictly stronger than this.
  assert(batch_live_ == 0 || when >= batch_time_);
  const std::uint32_t slot = alloc_slot();
  Meta& m = meta_[slot];
  m.seq = next_seq_++;
  m.when = when;
  fns_[slot] = std::move(fn);
  ++live_;
  if (batch_live_ > 0 && when == batch_time_) {
    // Same instant as the active batch: join it. next_seq_ is monotone,
    // so appending keeps the batch sorted by seq.
    m.where = kLocBatch;
    batch_.push_back({m.seq, slot, m.gen});
    ++batch_live_;
  } else {
    place(slot, when);
  }
  return EventHandle{this, slot, m.gen};
}

void EventQueue::cascade(int level, std::uint32_t idx) {
  std::uint32_t slot = wheel_head_[level][idx];
  if (slot == kNil) return;
  wheel_head_[level][idx] = kNil;
  wheel_bits_[level][idx >> 6] &= ~(1ull << (idx & 63));
  while (slot != kNil) {
    const std::uint32_t next = meta_[slot].next;
    --wheel_count_;  // leaving this residence; re-linking re-counts
    const std::int64_t w = meta_[slot].when.count_micros();
    if (w == cur_) {
      // Due exactly at the tick being entered: land in its level-0 slot
      // so the imminent gather collects it (place() would misroute an
      // at-current-tick event to the heap).
      wheel_link(slot, 0, digit(w, 0));
    } else {
      place(slot, meta_[slot].when);
    }
    slot = next;
  }
}

void EventQueue::advance_to(std::int64_t t) {
  const std::int64_t old = cur_;
  cur_ = t;  // first, so cascaded events re-place relative to t
  // Same level-0 window (the common tick-to-tick step): no slot at any
  // coarser level is being entered, so nothing can cascade.
  if ((t >> kSlotBits) == (old >> kSlotBits)) return;
  for (int l = kLevels - 1; l >= 1; --l) {
    if ((t >> (kSlotBits * l)) != (old >> (kSlotBits * l)))
      cascade(l, digit(t, l));
  }
}

std::int64_t EventQueue::wheel_next_scan() const {
  for (int l = 0; l < kLevels; ++l) {
    // Occupied slots at or above the current tick's digit hold every
    // level-l event (passed slots were cascaded or gathered), and any
    // level-l event is earlier than any level-(l+1) event, so the
    // first occupied slot at the lowest occupied level wins. The
    // current digit itself can be occupied only at level 0 — due-now
    // events sit there between pop_and_run single-steps — at coarser
    // levels entering a slot cascades it empty.
    const std::uint32_t start = digit(cur_, l);
    std::uint32_t word = start >> 6;
    const std::uint32_t bit = start & 63;
    std::uint64_t bits = wheel_bits_[l][word] &
                         (l == 0 ? ~0ull << bit
                                 : bit == 63 ? 0 : ~0ull << (bit + 1));
    for (;;) {
      if (bits != 0) {
        const std::uint32_t idx =
            (word << 6) + static_cast<std::uint32_t>(std::countr_zero(bits));
        if (l == 0) {
          // A level-0 slot is a single 1 µs tick: the index alone
          // reconstructs the exact time.
          return (cur_ & ~static_cast<std::int64_t>(kSlotMask)) |
                 static_cast<std::int64_t>(idx);
        }
        // Coarser slots span many ticks and are unordered: the exact
        // minimum needs one walk of this (first occupied) slot's list.
        std::int64_t best = kNoEvent;
        for (std::uint32_t s = wheel_head_[l][idx]; s != kNil;
             s = meta_[s].next)
          best = std::min(best, meta_[s].when.count_micros());
        return best;
      }
      if (++word >= kSlots / 64) break;
      bits = wheel_bits_[l][word];
    }
  }
  return kNoEvent;
}

std::int64_t EventQueue::wheel_next() const {
  if (wheel_count_ == 0) {
    wheel_next_cache_ = kNoEvent;
    wheel_dirty_ = false;
    return kNoEvent;
  }
  if (wheel_dirty_) {
    wheel_next_cache_ = wheel_next_scan();
    wheel_dirty_ = false;
  }
  return wheel_next_cache_;
}

std::int64_t EventQueue::wheel_settle_next() {
  if (wheel_count_ == 0) {
    wheel_next_cache_ = kNoEvent;
    wheel_dirty_ = false;
    return kNoEvent;
  }
  if (!wheel_dirty_) return wheel_next_cache_;
  for (;;) {
    // Level 0 first: a hit is exact straight from the bitmap (the
    // current digit's own slot counts — it may hold due-now events).
    {
      const std::uint32_t start = digit(cur_, 0);
      std::uint32_t word = start >> 6;
      std::uint64_t bits = wheel_bits_[0][word] & (~0ull << (start & 63));
      for (;;) {
        if (bits != 0) {
          const std::uint32_t idx =
              (word << 6) + static_cast<std::uint32_t>(std::countr_zero(bits));
          wheel_next_cache_ = (cur_ & ~static_cast<std::int64_t>(kSlotMask)) |
                              static_cast<std::int64_t>(idx);
          wheel_dirty_ = false;
          return wheel_next_cache_;
        }
        if (++word >= kSlots / 64) break;
        bits = wheel_bits_[0][word];
      }
    }
    // Enter the window of the first occupied coarse slot, cascading it
    // one level down; cur_ may run ahead of the Simulation clock here,
    // which only biases *placement* of later pushes (never pop order).
    [[maybe_unused]] bool found = false;
    for (int l = 1; l < kLevels && !found; ++l) {
      const std::uint32_t start = digit(cur_, l);
      std::uint32_t word = start >> 6;
      const std::uint32_t bit = start & 63;
      std::uint64_t bits =
          wheel_bits_[l][word] & (bit == 63 ? 0 : ~0ull << (bit + 1));
      for (;;) {
        if (bits != 0) {
          const std::uint32_t idx =
              (word << 6) + static_cast<std::uint32_t>(std::countr_zero(bits));
          const std::int64_t span = 1ll << (kSlotBits * l);
          const std::int64_t window_start =
              (cur_ & ~((span << kSlotBits) - 1)) + span * idx;
          advance_to(window_start);
          found = true;
          break;
        }
        if (++word >= kSlots / 64) break;
        bits = wheel_bits_[l][word];
      }
    }
    assert(found && "wheel_count_ > 0 but no occupied slot");
  }
}

Time EventQueue::next_time() const {
  std::int64_t t = batch_live_ > 0 ? batch_time_.count_micros() : kNoEvent;
  if (!heap_.empty()) t = std::min(t, heap_.front().when.count_micros());
  t = std::min(t, wheel_next());
  return Time::from_micros(t);  // kNoEvent is Time::max()
}

bool EventQueue::form_batch() {
  assert(batch_live_ == 0);
  batch_.clear();
  batch_pos_ = 0;
  const std::int64_t th =
      heap_.empty() ? kNoEvent : heap_.front().when.count_micros();
  const std::int64_t tw = wheel_next();
  const std::int64_t t = std::min(th, tw);
  if (t == kNoEvent) return false;
  gather_batch(t, th, tw);
  return true;
}

void EventQueue::gather_batch(std::int64_t t, std::int64_t th,
                              std::int64_t tw) {
  (void)th;  // the heap prefix is re-checked directly below
  batch_time_ = Time::from_micros(t);
  if (tw == t) {
    // The wheel participates in this tick: enter it (cascading every
    // newly opened coarse slot down to level 0) and take the whole
    // level-0 slot — all events due at exactly t — in one splice.
    if (t > cur_) advance_to(t);
    const std::uint32_t idx = digit(t, 0);
    std::uint32_t slot = wheel_head_[0][idx];
    if (slot != kNil) {
      wheel_head_[0][idx] = kNil;
      wheel_bits_[0][idx >> 6] &= ~(1ull << (idx & 63));
      while (slot != kNil) {
        Meta& m = meta_[slot];
        assert(m.when.count_micros() == t);
        m.where = kLocBatch;
        batch_.push_back({m.seq, slot, m.gen});
        --wheel_count_;
        slot = m.next;
      }
    }
    wheel_dirty_ = true;  // the wheel just lost its minimum
  }
  while (!heap_.empty() && heap_.front().when.count_micros() == t)
    heap_pop_root_to_batch();
  // Restore the (when, seq) total order: all entries share `when`, and
  // wheel slots are unordered (a cascaded far event may carry a smaller
  // seq than a directly-pushed near one).
  std::sort(batch_.begin(), batch_.end(),
            [](const BatchEntry& a, const BatchEntry& b) {
              return a.seq < b.seq;
            });
  batch_live_ = batch_.size();
  assert(batch_live_ > 0);
}

bool EventQueue::run_batch_entry() {
  const BatchEntry e = batch_[batch_pos_++];
  if (meta_[e.slot].gen != e.gen) return false;  // cancelled after gathering
  // Move the callback out before running: fn may push new events and
  // recycle the slot or grow the tables.
  EventFn fn = std::move(fns_[e.slot]);
  free_slot(e.slot);
  --live_;
  --batch_live_;
  fn();
  return true;
}

std::size_t EventQueue::run_tick() {
  if (batch_live_ == 0 && !form_batch()) return 0;
  std::size_t ran = 0;
  while (batch_live_ > 0) {
    assert(batch_pos_ < batch_.size());
    if (run_batch_entry()) ++ran;
  }
  batch_.clear();
  batch_pos_ = 0;
  return ran;
}

std::size_t EventQueue::run_next_tick(Time deadline, Time& now) {
  if (batch_live_ == 0) {
    const std::int64_t th =
        heap_.empty() ? kNoEvent : heap_.front().when.count_micros();
    const std::int64_t tw = wheel_settle_next();
    const std::int64_t t = th < tw ? th : tw;
    if (t == kNoEvent || t > deadline.count_micros()) return 0;
    now = Time::from_micros(t);
    if (tw < th) {
      // Wheel-only tick. Enter it (a no-op within the current 256 µs
      // window), after which the level-0 slot for t holds exactly the
      // wheel events due at t — a later event can only share the slot
      // index from >= t + 256 µs, which classifies to level >= 1.
      if (t > cur_) advance_to(t);
      const std::uint32_t idx = digit(t, 0);
      const std::uint32_t head = wheel_head_[0][idx];
      assert(head != kNil);
      if (meta_[head].next == kNil) {
        // Singleton tick: run the lone callback straight out of its
        // slot — no batch, no seq sort. Same-instant pushes made by
        // the callback route to the heap (when <= cur_) and run on the
        // very next call, still in seq order.
        wheel_head_[0][idx] = kNil;
        wheel_bits_[0][idx >> 6] &= ~(1ull << (idx & 63));
        --wheel_count_;
        wheel_dirty_ = true;  // the wheel just lost its minimum
        EventFn fn = std::move(fns_[head]);
        free_slot(head);
        --live_;
        fn();
        return 1;
      }
    }
    batch_.clear();
    batch_pos_ = 0;
    gather_batch(t, th, tw);
  } else {
    // A partially drained batch (pop_and_run interleaving): finish it.
    if (batch_time_ > deadline) return 0;
    now = batch_time_;
  }
  std::size_t ran = 0;
  while (batch_live_ > 0) {
    assert(batch_pos_ < batch_.size());
    if (run_batch_entry()) ++ran;
  }
  batch_.clear();
  batch_pos_ = 0;
  return ran;
}

bool EventQueue::pop_and_run() {
  // Unlike the batched tick drivers, this single-steps the exact
  // (when, seq) global minimum without gathering a batch, so pushes at
  // or before already-executed ticks (legal through the raw queue API,
  // though not through Simulation) interleave correctly.
  const std::int64_t tb =
      batch_live_ > 0 ? batch_time_.count_micros() : kNoEvent;
  const std::int64_t th =
      heap_.empty() ? kNoEvent : heap_.front().when.count_micros();
  const std::int64_t tw = wheel_next();
  const std::int64_t t = std::min({tb, th, tw});
  if (t == kNoEvent) return false;
  if (tb == t) {
    // An already-gathered tick batch (single-stepping from inside a
    // draining tick) still holds the minimum: continue draining it.
    while (batch_live_ > 0) {
      assert(batch_pos_ < batch_.size());
      if (run_batch_entry()) return true;
    }
    return pop_and_run();  // batch was all-cancelled; recompute
  }
  std::uint32_t slot = kNil;
  if (tw == t) {
    // Enter the tick so every wheel event due at t sits in its level-0
    // slot, then take the smallest seq there.
    if (t > cur_) advance_to(t);
    const std::uint32_t idx = digit(t, 0);
    for (std::uint32_t s = wheel_head_[0][idx]; s != kNil; s = meta_[s].next)
      if (slot == kNil || meta_[s].seq < meta_[slot].seq) slot = s;
    assert(slot != kNil);
  }
  if (th == t && (slot == kNil || heap_.front().seq < meta_[slot].seq)) {
    // The heap root is the (when, seq) minimum (the heap order makes
    // the root the min-seq heap entry at t). Remove it; any same-tick
    // wheel event stays for the next call.
    slot = heap_.front().slot;
    const Entry tail = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(tail, 0);
  } else {
    wheel_unlink(slot);
  }
  EventFn fn = std::move(fns_[slot]);
  free_slot(slot);
  --live_;
  fn();
  return true;
}

void EventQueue::heap_place(const Entry& e, std::size_t i) {
  meta_[e.slot].pos = static_cast<std::uint32_t>(i);
  heap_[i] = e;
}

void EventQueue::sift_up(Entry e, std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_place(heap_[parent], i);
    i = parent;
  }
  heap_place(e, i);
}

void EventQueue::sift_down(Entry e, std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c)
      if (before(heap_[c], heap_[best])) best = c;
    if (!before(heap_[best], e)) break;
    heap_place(heap_[best], i);
    i = best;
  }
  heap_place(e, i);
}

void EventQueue::heap_erase(std::size_t pos) {
  const std::uint32_t slot = heap_[pos].slot;
  fns_[slot].reset();
  free_slot(slot);
  --live_;
  const Entry tail = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // erased the last slot
  // Reposition the relocated tail: it may need to move either way.
  if (pos > 0 && before(tail, heap_[(pos - 1) / 4])) {
    sift_up(tail, pos);
  } else {
    sift_down(tail, pos);
  }
}

void EventQueue::heap_pop_root_to_batch() {
  const Entry root = heap_.front();
  Meta& m = meta_[root.slot];
  m.where = kLocBatch;
  batch_.push_back({root.seq, root.slot, m.gen});
  const Entry tail = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(tail, 0);
}

}  // namespace ntier::sim
