#include "src/common/timer_wheel.hpp"

#include <algorithm>

namespace chunknet {

namespace {
constexpr std::uint64_t kSpan1 = 1ull << 8;   // level-0 horizon (ticks)
constexpr std::uint64_t kSpan2 = 1ull << 16;  // level-1 horizon
constexpr std::uint64_t kSpan3 = 1ull << 24;  // level-2 horizon
constexpr std::uint64_t kSpan4 = 1ull << 32;  // level-3 horizon
}  // namespace

TimerWheel::TimerWheel(Config cfg) : cfg_(cfg) {
  if (cfg_.tick == 0) cfg_.tick = 1;
  for (int l = 0; l < kLevels; ++l) {
    for (std::uint64_t s = 0; s < kSlots; ++s) {
      slots_[l][s] = kNil;
      tails_[l][s] = kNil;
    }
  }
}

std::size_t TimerWheel::memory_bytes() const {
  return slab_.capacity() * sizeof(Node) + sizeof(*this);
}

std::int32_t TimerWheel::alloc_node() {
  if (free_ != kNil) {
    const std::int32_t n = free_;
    free_ = slab_[static_cast<std::size_t>(n)].next;
    return n;
  }
  slab_.push_back(Node{});
  return static_cast<std::int32_t>(slab_.size() - 1);
}

void TimerWheel::free_node(std::int32_t n) {
  Node& node = slab_[static_cast<std::size_t>(n)];
  node.cb = nullptr;
  node.level = -1;
  ++node.gen;  // invalidates every outstanding TimerId for this slot
  node.next = free_;
  free_ = n;
}

void TimerWheel::link(std::int32_t n, int level, int slot) {
  Node& node = slab_[static_cast<std::size_t>(n)];
  node.level = static_cast<std::int16_t>(level);
  node.slot = static_cast<std::int16_t>(slot);
  node.next = kNil;
  std::int32_t& head = (level == kLevels) ? due_head_ : slots_[level][slot];
  std::int32_t& tail = (level == kLevels) ? due_tail_ : tails_[level][slot];
  node.prev = tail;
  if (tail != kNil) {
    slab_[static_cast<std::size_t>(tail)].next = n;
  } else {
    head = n;
  }
  tail = n;
  if (level < kLevels) ++level_count_[level];
}

void TimerWheel::unlink(std::int32_t n) {
  Node& node = slab_[static_cast<std::size_t>(n)];
  const int level = node.level;
  std::int32_t& head = (level == kLevels) ? due_head_ : slots_[level][node.slot];
  std::int32_t& tail = (level == kLevels) ? due_tail_ : tails_[level][node.slot];
  if (node.prev != kNil) {
    slab_[static_cast<std::size_t>(node.prev)].next = node.next;
  } else {
    head = node.next;
  }
  if (node.next != kNil) {
    slab_[static_cast<std::size_t>(node.next)].prev = node.prev;
  } else {
    tail = node.prev;
  }
  node.prev = kNil;
  node.next = kNil;
  if (level < kLevels) --level_count_[level];
}

void TimerWheel::place(std::int32_t n) {
  Node& node = slab_[static_cast<std::size_t>(n)];
  std::uint64_t dt = node.deadline_tick;
  const std::uint64_t delta = dt - cur_tick_;  // callers ensure dt >= cur
  if (delta < kSpan1) {
    link(n, 0, static_cast<int>(dt & kSlotMask));
  } else if (delta < kSpan2) {
    link(n, 1, static_cast<int>((dt >> kSlotBits) & kSlotMask));
  } else if (delta < kSpan3) {
    link(n, 2, static_cast<int>((dt >> (2 * kSlotBits)) & kSlotMask));
  } else {
    if (delta >= kSpan4) {
      dt = cur_tick_ + kSpan4 - 1;  // clamp to the horizon (~49 days @1ms)
      node.deadline_tick = dt;
    }
    link(n, 3, static_cast<int>((dt >> (3 * kSlotBits)) & kSlotMask));
  }
}

TimerWheel::TimerId TimerWheel::arm(SimTime deadline, std::function<void()> cb) {
  const std::uint64_t dt = (deadline + cfg_.tick - 1) / cfg_.tick;
  const std::int32_t n = alloc_node();
  Node& node = slab_[static_cast<std::size_t>(n)];
  node.cb = std::move(cb);
  node.deadline_tick = dt;
  if (dt <= cur_tick_) {
    node.deadline_tick = cur_tick_;
    link(n, kLevels, 0);  // due list: fires on the next advance()
  } else {
    place(n);
  }
  ++armed_;
  ++stats_.armed_total;
  return (static_cast<std::uint64_t>(n) + 1) << 32 | node.gen;
}

bool TimerWheel::cancel(TimerId id) {
  if (id == 0) return false;
  const std::uint64_t idx64 = (id >> 32) - 1;
  if (idx64 >= slab_.size()) return false;
  const std::int32_t n = static_cast<std::int32_t>(idx64);
  Node& node = slab_[static_cast<std::size_t>(n)];
  if (node.level < 0 || node.gen != static_cast<std::uint32_t>(id)) {
    return false;  // already fired / cancelled / re-armed
  }
  unlink(n);
  free_node(n);
  --armed_;
  ++stats_.cancelled;
  return true;
}

void TimerWheel::cascade(int level, int slot) {
  std::int32_t n = slots_[level][slot];
  slots_[level][slot] = kNil;
  tails_[level][slot] = kNil;
  while (n != kNil) {
    Node& node = slab_[static_cast<std::size_t>(n)];
    const std::int32_t next = node.next;
    level_count_[level] -= 1;
    node.prev = kNil;
    node.next = kNil;
    place(n);
    ++stats_.cascaded;
    n = next;
  }
}

void TimerWheel::step_boundaries() {
  // cur_tick_ just crossed a multiple of 256: open the next level-1
  // window (and, at coarser boundaries, the windows above it —
  // coarsest first so entries trickle all the way down).
  const std::uint64_t t = cur_tick_;
  if ((t & (kSpan3 - 1)) == 0) {
    cascade(3, static_cast<int>((t >> (3 * kSlotBits)) & kSlotMask));
  }
  if ((t & (kSpan2 - 1)) == 0) {
    cascade(2, static_cast<int>((t >> (2 * kSlotBits)) & kSlotMask));
  }
  cascade(1, static_cast<int>((t >> kSlotBits) & kSlotMask));
}

void TimerWheel::fire_slot(int slot) {
  while (slots_[0][slot] != kNil) {
    const std::int32_t n = slots_[0][slot];
    Node& node = slab_[static_cast<std::size_t>(n)];
    std::function<void()> cb = std::move(node.cb);
    unlink(n);
    free_node(n);
    --armed_;
    ++stats_.fired;
    if (cb) cb();  // may arm/cancel freely: node already recycled
  }
}

void TimerWheel::fire_due() {
  while (due_head_ != kNil) {
    const std::int32_t n = due_head_;
    Node& node = slab_[static_cast<std::size_t>(n)];
    std::function<void()> cb = std::move(node.cb);
    unlink(n);
    free_node(n);
    --armed_;
    ++stats_.fired;
    if (cb) cb();
  }
}

void TimerWheel::advance(SimTime now) {
  if (now > now_) now_ = now;
  const std::uint64_t target = now / cfg_.tick;
  fire_due();
  while (cur_tick_ < target) {
    if (level_count_[0] == 0 && due_head_ == kNil) {
      // Nothing can fire before the next level-1 window opens: jump.
      const std::uint64_t boundary = (cur_tick_ | kSlotMask) + 1;
      if (armed_ == 0 || boundary > target) {
        cur_tick_ = target;
        break;
      }
      cur_tick_ = boundary - 1;  // the normal step crosses the boundary
    }
    ++cur_tick_;
    if ((cur_tick_ & kSlotMask) == 0) step_boundaries();
    fire_slot(static_cast<int>(cur_tick_ & kSlotMask));
    fire_due();  // callbacks may arm immediately-due timers
  }
}

std::optional<SimTime> TimerWheel::next_deadline() const {
  if (armed_ == 0) return std::nullopt;
  if (due_head_ != kNil) return cur_tick_ * cfg_.tick;
  std::uint64_t best = ~std::uint64_t{0};
  for (int l = 0; l < kLevels; ++l) {
    if (level_count_[l] == 0) continue;
    const int shift = l * kSlotBits;
    const std::uint64_t pos = cur_tick_ >> shift;
    for (std::uint64_t k = 0; k < kSlots; ++k) {
      const int s = static_cast<int>((pos + k) & kSlotMask);
      if (slots_[l][s] == kNil) continue;
      std::uint64_t bound;
      if (k == 0) {
        // The current slot's window start is in the past; use the
        // exact minimum so the pump never spins on a stale bound.
        bound = ~std::uint64_t{0};
        for (std::int32_t n = slots_[l][s]; n != kNil;
             n = slab_[static_cast<std::size_t>(n)].next) {
          bound = std::min(bound,
                           slab_[static_cast<std::size_t>(n)].deadline_tick);
        }
      } else {
        bound = (pos + k) << shift;  // window start: conservative
      }
      best = std::min(best, bound);
      break;  // first nonempty slot per level is the earliest there
    }
  }
  if (best == ~std::uint64_t{0}) return std::nullopt;
  return best * cfg_.tick;
}

}  // namespace chunknet
