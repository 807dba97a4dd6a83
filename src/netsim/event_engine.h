// The fast event core under the packet-level simulator: a pooled, cache-friendly
// 4-ary min-heap of by-value event structs with per-stream FIFO lanes in front
// of it, and a power-of-two ring buffer for droptail link queues.
//
// Why not std::priority_queue + std::deque (the pre-refactor engine):
//   - a 4-ary heap halves the tree depth of a binary heap and keeps all four
//     children of a node in (at most) two cache lines, cutting the pointer-free
//     sift traffic that dominates push/pop at simulator event sizes;
//   - events are 40-byte PODs stored by value in one flat vector whose capacity
//     is reused across the whole simulation (a "pool" in the allocation sense:
//     steady state performs zero heap allocation per event);
//   - the ring buffer replaces std::deque's chunked allocation with one
//     contiguous power-of-two array and O(1) monotone head/tail indices, which
//     is also exactly the O(1) occupancy count droptail admission needs.
//
// Lanes: most pending events in a packet simulation belong to a few per-stream
// FIFO sequences (a flow's in-flight ACK arrivals, its loss notices) that are
// already time-sorted as they are scheduled. Such a stream is pushed to its own
// lane: an event joins the lane when it does not sort before the lane's tail,
// so every lane stays sorted by (time_s, order), and only the head of each
// non-empty lane sits in the heap. Joining a non-empty lane costs no sift;
// popping a lane head puts the lane's next head in the root with one sift-down,
// and a drained lane leaves the heap. An event that would break its lane's
// order (a delay spike ending, a shrinking RTT estimate) is pushed to the heap
// on its own instead. The heap thus holds at most one entry per non-empty lane
// plus the standalone events, instead of every in-flight packet.
//
// Ordering contract: strict weak order by (time_s, order). `order` is a unique
// monotone sequence number assigned at scheduling time, so the pop sequence is a
// total order — any correct heap yields the identical dispatch sequence, with
// or without lanes, which is what makes the engine swap bit-compatible with
// the old priority_queue.
#ifndef MOCC_SRC_NETSIM_EVENT_ENGINE_H_
#define MOCC_SRC_NETSIM_EVENT_ENGINE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mocc {

// One scheduled simulator event. POD, 40 bytes: the heap moves these by value.
struct SimEvent {
  double time_s;
  uint64_t order;
  double send_time_s;
  int64_t seq;
  int32_t flow_id;
  uint8_t type;    // PacketNetwork::EvType
  uint8_t hop;     // index into the flow's (data or ACK) path for packet events
  uint8_t is_ack;  // 1 when this packet event travels the reverse (ACK) path
  uint8_t ecn;     // 1 when the packet carries an ECN congestion mark
};

// Fixed-layout FIFO over a power-of-two buffer with monotone 64-bit head/tail
// cursors (masked on access). Storage is allocated on the first push and grows
// by doubling when full; in steady state a droptail queue never exceeds its
// configured capacity, so growth happens at most a handful of times per
// simulation, and a ring that is never pushed to costs no allocation.
template <typename T>
class RingBuffer {
 public:
  bool empty() const { return head_ == tail_; }
  size_t size() const { return static_cast<size_t>(tail_ - head_); }

  void push_back(const T& value) {
    if (size() == buffer_.size()) {
      Reallocate(buffer_.empty() ? kInitialCapacity : buffer_.size() * 2);
    }
    buffer_[tail_ & mask_] = value;
    ++tail_;
  }

  const T& front() const {
    assert(!empty());
    return buffer_[head_ & mask_];
  }

  const T& back() const {
    assert(!empty());
    return buffer_[(tail_ - 1) & mask_];
  }

  void pop_front() {
    assert(!empty());
    ++head_;
  }

  void clear() { head_ = tail_ = 0; }

 private:
  static constexpr size_t kInitialCapacity = 64;

  void Reallocate(size_t capacity) {
    std::vector<T> next(capacity);
    const size_t count = size();
    for (size_t i = 0; i < count; ++i) {
      next[i] = buffer_[(head_ + i) & mask_];
    }
    buffer_ = std::move(next);
    head_ = 0;
    tail_ = count;
    mask_ = capacity - 1;
  }

  std::vector<T> buffer_;
  uint64_t head_ = 0;
  uint64_t tail_ = 0;
  uint64_t mask_ = 0;
};

// Min-heap of scheduled events ordered by (time_s, order), with 4 children per
// node, fed by FIFO lanes (see the file comment). The heap itself holds only
// 24-byte keys {time, order, pool slot, lane}; a standalone event's 24-byte cold
// payload (seq, send time, flow, type) lives in a slot pool indexed by the key,
// so sift-up/down moves 40% less data and the branchy comparison walk stays
// within fewer cache lines. Slots are recycled through a free list — zero
// allocation per event in steady state. A lane keeps its events by value in its
// own ring, and its heap key names the lane instead of a slot.
class EventQueue {
 public:
  using LaneId = uint32_t;

  bool empty() const { return heap_.empty(); }
  // Heap residency: standalone events plus one head per non-empty lane.
  size_t heap_size() const { return heap_.size(); }

  void reserve(size_t n) {
    heap_.reserve(n);
    pool_.reserve(n);
    free_.reserve(n);
  }

  // Adds `count` empty lanes and returns the id of the first; ids are
  // consecutive from 0 in the order lanes are added. A lane allocates its ring
  // on its first push.
  LaneId AddLanes(uint32_t count) {
    const LaneId first = static_cast<LaneId>(lanes_.size());
    lanes_.resize(lanes_.size() + count);
    return first;
  }

  // Time of the earliest event (callers use it for run-horizon checks).
  double top_time() const {
    assert(!heap_.empty());
    return heap_[0].time_s;
  }

  // Schedules a standalone event.
  void push(const SimEvent& ev) {
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<uint32_t>(pool_.size());
      pool_.emplace_back();
    }
    Payload& payload = pool_[slot];
    payload.send_time_s = ev.send_time_s;
    payload.seq = ev.seq;
    payload.flow_id = ev.flow_id;
    payload.type = ev.type;
    payload.hop = ev.hop;
    payload.is_ack = ev.is_ack;
    payload.ecn = ev.ecn;
    SiftUp(Key{ev.time_s, ev.order, slot, kNoLane});
  }

  // Schedules an event on `lane`: it joins the lane unless it sorts before
  // the lane's tail, in which case it is scheduled standalone.
  void push(const SimEvent& ev, LaneId lane) {
    assert(lane < lanes_.size());
    RingBuffer<SimEvent>& fifo = lanes_[lane];
    if (fifo.empty()) {
      fifo.push_back(ev);
      SiftUp(Key{ev.time_s, ev.order, 0, lane});
    } else if (!Before(ev.time_s, ev.order, fifo.back().time_s, fifo.back().order)) {
      fifo.push_back(ev);
    } else {
      push(ev);
    }
  }

  // Removes and returns the earliest event.
  SimEvent pop() {
    assert(!heap_.empty());
    const Key top = heap_[0];
    if (top.lane != kNoLane) {
      RingBuffer<SimEvent>& fifo = lanes_[top.lane];
      const SimEvent ev = fifo.front();
      fifo.pop_front();
      if (fifo.empty()) {
        RemoveRoot();
      } else {
        const SimEvent& next = fifo.front();
        heap_[0] = Key{next.time_s, next.order, 0, top.lane};
        SiftDown();
      }
      return ev;
    }
    const Payload& payload = pool_[top.slot];
    SimEvent ev;
    ev.time_s = top.time_s;
    ev.order = top.order;
    ev.send_time_s = payload.send_time_s;
    ev.seq = payload.seq;
    ev.flow_id = payload.flow_id;
    ev.type = payload.type;
    ev.hop = payload.hop;
    ev.is_ack = payload.is_ack;
    ev.ecn = payload.ecn;
    free_.push_back(top.slot);
    RemoveRoot();
    return ev;
  }

 private:
  static constexpr uint32_t kNoLane = 0xFFFFFFFFu;

  struct Key {
    double time_s;
    uint64_t order;
    uint32_t slot;  // payload pool slot of a standalone event
    uint32_t lane;  // lane whose head this is, kNoLane for a standalone event
  };

  struct Payload {
    double send_time_s;
    int64_t seq;
    int32_t flow_id;
    uint8_t type;
    uint8_t hop;
    uint8_t is_ack;
    uint8_t ecn;
  };

  static bool Before(double a_time_s, uint64_t a_order, double b_time_s,
                     uint64_t b_order) {
    if (a_time_s != b_time_s) {
      return a_time_s < b_time_s;
    }
    return a_order < b_order;
  }

  static bool Before(const Key& a, const Key& b) {
    return Before(a.time_s, a.order, b.time_s, b.order);
  }

  void SiftUp(const Key& key) {
    size_t i = heap_.size();
    heap_.push_back(key);
    while (i > 0) {
      const size_t parent = (i - 1) >> 2;
      if (!Before(heap_[i], heap_[parent])) {
        break;
      }
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void RemoveRoot() {
    const size_t last = heap_.size() - 1;
    heap_[0] = heap_[last];
    heap_.pop_back();
    if (last > 1) {
      SiftDown();
    }
  }

  void SiftDown() {
    const size_t count = heap_.size();
    size_t i = 0;
    for (;;) {
      const size_t first_child = (i << 2) + 1;
      if (first_child >= count) {
        break;
      }
      size_t best = first_child;
      const size_t end = first_child + 4 < count ? first_child + 4 : count;
      for (size_t c = first_child + 1; c < end; ++c) {
        if (Before(heap_[c], heap_[best])) {
          best = c;
        }
      }
      if (!Before(heap_[best], heap_[i])) {
        break;
      }
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  std::vector<Key> heap_;
  std::vector<Payload> pool_;
  std::vector<uint32_t> free_;
  std::vector<RingBuffer<SimEvent>> lanes_;
};

}  // namespace mocc

#endif  // MOCC_SRC_NETSIM_EVENT_ENGINE_H_
