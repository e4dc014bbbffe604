#include "src/common/runtime.hpp"

#include <utility>

namespace chunknet {

TimerId Simulator::arm_at(SimTime t, std::function<void()> fn) {
  if (t < now_) t = now_;  // never schedule into the past
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<std::uint32_t>(gens_.size()));
    gens_.push_back(0);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  const TimerId id = (static_cast<TimerId>(slot) + 1) << 32 | gens_[slot];
  events_.push(Event{t, ++seq_counter_, id, std::move(fn)});
  return id;
}

bool Simulator::cancel(TimerId id) {
  const std::uint64_t slot = (id >> 32) - 1;  // id 0 wraps out of range
  if (slot >= gens_.size() || gens_[slot] != static_cast<std::uint32_t>(id)) {
    return false;  // already fired / cancelled
  }
  ++gens_[slot];  // the id dies; its heap entry becomes a tombstone
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
  return true;
}

std::uint64_t Simulator::run(SimTime deadline) {
  std::uint64_t executed = 0;
  while (!events_.empty()) {
    // priority_queue::top returns const&; the function object must be
    // moved out before pop, so copy the POD parts first.
    const Event& top = events_.top();
    if (top.t > deadline) break;
    // Firing retires the id as cancel() does, before the callback; an
    // event whose id is already dead was cancelled: skip it, time stays.
    if (!cancel(top.id)) {
      events_.pop();
      continue;
    }
    now_ = top.t;
    auto fn = std::move(const_cast<Event&>(top).fn);
    events_.pop();
    fn();
    ++executed;
  }
  return executed;
}

}  // namespace chunknet
