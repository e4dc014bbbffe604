#include "src/common/resource_governor.hpp"

#include <algorithm>

namespace chunknet {

ResourceGovernor::ResourceGovernor(GovernorConfig cfg) : cfg_(cfg) {
  if (cfg_.obs != nullptr && cfg_.obs->metrics != nullptr) {
    MetricsRegistry& m = *cfg_.obs->metrics;
    g_charged_ = &m.gauge("governor.charged_bytes");
    g_peak_ = &m.gauge("governor.charged_peak");
    g_reserved_ = &m.gauge("governor.reserved_bytes");
    g_clients_ = &m.gauge("governor.clients");
    c_admissions_ = &m.counter("governor.admissions");
    c_admission_refused_ = &m.counter("governor.admission_refused");
    c_sheds_ = &m.counter("governor.sheds");
    c_shed_bytes_ = &m.counter("governor.shed_bytes");
    c_soft_crossings_ = &m.counter("governor.soft_crossings");
    m.gauge("governor.soft_watermark").set(
        static_cast<std::int64_t>(cfg_.soft_watermark_bytes));
    m.gauge("governor.hard_watermark").set(
        static_cast<std::int64_t>(cfg_.hard_watermark_bytes));
  }
}

ResourceGovernor::Client& ResourceGovernor::entry_locked(std::uint32_t client) {
  auto [it, inserted] = clients_.try_emplace(client);
  if (inserted) {
    it->second.order = next_order_++;
  }
  return it->second;
}

void ResourceGovernor::bind_client(std::uint32_t client, int priority,
                                   ShedFn shed) {
  std::lock_guard<std::mutex> lk(mu_);
  Client& c = entry_locked(client);
  c.priority = priority;
  if (shed) c.shed = std::move(shed);
  publish_locked();
}

void ResourceGovernor::unbind_client(std::uint32_t client) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = clients_.find(client);
  if (it == clients_.end()) return;
  charged_ -= std::min(charged_, it->second.total());
  reserved_ -= std::min(reserved_, it->second.reserve);
  clients_.erase(it);
  publish_locked();
}

bool ResourceGovernor::try_admit(std::uint32_t client,
                                 std::uint64_t reserve_bytes, int priority) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t committed = charged_ + reserved_;
  if (committed + reserve_bytes > cfg_.hard_watermark_bytes) {
    ++stats_.admission_refused;
    obs_add(c_admission_refused_);
    return false;
  }
  Client& c = entry_locked(client);
  c.priority = priority;
  reserved_ -= c.reserve;  // re-admission replaces the old reserve
  c.reserve = reserve_bytes;
  reserved_ += reserve_bytes;
  ++stats_.admissions;
  obs_add(c_admissions_);
  publish_locked();
  return true;
}

bool ResourceGovernor::acquire_admission_lease(std::uint32_t lease_id,
                                               std::uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  if (charged_ + reserved_ + bytes > cfg_.hard_watermark_bytes) {
    ++stats_.admission_refused;
    obs_add(c_admission_refused_);
    return false;
  }
  Client& c = entry_locked(lease_id);
  c.reserve += bytes;
  reserved_ += bytes;
  ++stats_.admissions;
  obs_add(c_admissions_);
  publish_locked();
  return true;
}

void ResourceGovernor::release_admission_lease(std::uint32_t lease_id,
                                               std::uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = clients_.find(lease_id);
  if (it == clients_.end()) return;
  const std::uint64_t give = std::min(it->second.reserve, bytes);
  it->second.reserve -= give;
  reserved_ -= std::min(reserved_, give);
  publish_locked();
}

void ResourceGovernor::charge(std::uint32_t client, ResourceClass cls,
                              std::uint64_t bytes) {
  if (bytes == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  const bool was_soft = charged_ > cfg_.soft_watermark_bytes;
  Client& c = entry_locked(client);
  c.by_class[static_cast<std::size_t>(cls)] += bytes;
  charged_ += bytes;
  stats_.charged_peak = std::max(stats_.charged_peak, charged_);
  if (!was_soft && charged_ > cfg_.soft_watermark_bytes) {
    ++stats_.soft_crossings;
    obs_add(c_soft_crossings_);
  }
  publish_locked();
}

void ResourceGovernor::release(std::uint32_t client, ResourceClass cls,
                               std::uint64_t bytes) {
  if (bytes == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  auto it = clients_.find(client);
  if (it == clients_.end()) return;
  std::uint64_t& held = it->second.by_class[static_cast<std::size_t>(cls)];
  const std::uint64_t freed = std::min(held, bytes);
  held -= freed;
  charged_ -= std::min(charged_, freed);
  publish_locked();
}

bool ResourceGovernor::fits(std::uint64_t extra) const {
  std::lock_guard<std::mutex> lk(mu_);
  return charged_ + extra <= cfg_.hard_watermark_bytes;
}

bool ResourceGovernor::pick_victim_locked(std::uint32_t exclude,
                                          std::uint32_t& victim) const {
  bool have = false;
  double victim_score = 0.0;
  for (const auto& [id, c] : clients_) {
    // exclude == 0 excludes nobody: 0 is the shared-infrastructure
    // client (e.g. the buffer pool), never a connection asking for room.
    if ((exclude != 0 && id == exclude) || !c.shed || c.total() == 0) {
      continue;
    }
    double score = 0.0;
    switch (cfg_.policy) {
      case ShedPolicy::kLargestHolderFirst:
        score = static_cast<double>(c.total());
        break;
      case ShedPolicy::kPriorityWeighted:
        score = static_cast<double>(c.total()) /
                static_cast<double>(std::max(c.priority, 1));
        break;
      case ShedPolicy::kOldestFirst:
        // Highest score wins, so oldest = smallest order inverted.
        score = -static_cast<double>(c.order);
        break;
    }
    if (!have || score > victim_score) {
      have = true;
      victim = id;
      victim_score = score;
    }
  }
  return have;
}

std::uint64_t ResourceGovernor::shed_until_goal(
    std::uint64_t goal_charged, std::uint32_t exclude) {
  // Called with mu_ UNLOCKED; takes/drops the lock around victim
  // selection so hooks run lock-free and may re-enter release().
  std::uint64_t total_freed = 0;
  for (;;) {
    ShedFn hook;
    std::uint32_t victim_id = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (charged_ <= goal_charged) break;
      if (!pick_victim_locked(exclude, victim_id)) break;
      hook = clients_[victim_id].shed;  // copy: hook may unbind itself
    }
    const std::uint64_t freed = hook();
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.sheds;
      stats_.shed_bytes += freed;
      obs_add(c_sheds_);
      obs_add(c_shed_bytes_, freed);
    }
    if (cfg_.obs != nullptr && cfg_.obs->spans != nullptr) {
      SpanEvent e;
      e.t = cfg_.clock != nullptr ? cfg_.clock->now() : 0;
      e.kind = SpanEventKind::kGovernorShed;
      e.connection_id = victim_id;
      e.aux = freed;
      cfg_.obs->spans->record(e);
    }
    if (freed == 0) break;  // no progress: stop rather than spin
    total_freed += freed;
  }
  return total_freed;
}

bool ResourceGovernor::make_room(std::uint64_t extra,
                                 std::uint32_t exclude_client) {
  const std::uint64_t hard = cfg_.hard_watermark_bytes;
  const std::uint64_t goal = extra >= hard ? 0 : hard - extra;
  shed_until_goal(goal, exclude_client);
  return fits(extra);
}

std::uint64_t ResourceGovernor::shed_to_soft() {
  return shed_until_goal(cfg_.soft_watermark_bytes, 0);
}

bool ResourceGovernor::over_soft() const {
  std::lock_guard<std::mutex> lk(mu_);
  return charged_ > cfg_.soft_watermark_bytes;
}

std::uint64_t ResourceGovernor::headroom() const {
  std::lock_guard<std::mutex> lk(mu_);
  return charged_ >= cfg_.hard_watermark_bytes
             ? 0
             : cfg_.hard_watermark_bytes - charged_;
}

std::uint64_t ResourceGovernor::grant_hint(std::uint32_t client) const {
  std::lock_guard<std::mutex> lk(mu_);
  (void)client;
  const std::uint64_t room = charged_ >= cfg_.hard_watermark_bytes
                                 ? 0
                                 : cfg_.hard_watermark_bytes - charged_;
  const std::uint64_t n = std::max<std::uint64_t>(clients_.size(), 1);
  std::uint64_t share = room / n;
  // Over the soft watermark the window collapses to a quarter share:
  // the shrinking grant is the sender's multiplicative-backoff signal.
  if (charged_ > cfg_.soft_watermark_bytes) share /= 4;
  return share;
}

ResourceGovernor::Stats ResourceGovernor::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s = stats_;
  s.charged_now = charged_;
  s.reserved_now = reserved_;
  s.clients = clients_.size();
  return s;
}

std::uint64_t ResourceGovernor::client_usage(std::uint32_t client) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = clients_.find(client);
  return it == clients_.end() ? 0 : it->second.total();
}

void ResourceGovernor::publish_locked() {
  obs_set(g_charged_, static_cast<std::int64_t>(charged_));
  obs_set(g_peak_, static_cast<std::int64_t>(stats_.charged_peak));
  obs_set(g_reserved_, static_cast<std::int64_t>(reserved_));
  obs_set(g_clients_, static_cast<std::int64_t>(clients_.size()));
}

}  // namespace chunknet
