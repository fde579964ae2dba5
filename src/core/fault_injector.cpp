#include "core/fault_injector.hpp"

#include <cmath>

#include "core/hash.hpp"

namespace gnntrans::core {

FaultInjector& FaultInjector::global() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::configure(const Config& config) {
  armed_.store(false, std::memory_order_release);
  seed_ = config.seed;
  site_mask_ = config.site_mask;
  const double p = std::fmin(std::fmax(config.probability, 0.0), 1.0);
  // p == 1 must always fire; the ladder below cannot represent 2^64.
  threshold_ = p >= 1.0 ? ~0ull
                        : static_cast<std::uint64_t>(
                              p * 18446744073709551615.0);  // p * (2^64 - 1)
  reset_counts();
  armed_.store(p > 0.0 && site_mask_ != 0, std::memory_order_release);
}

void FaultInjector::disarm() { armed_.store(false, std::memory_order_release); }

bool FaultInjector::would_fail(FaultSite site,
                               std::string_view key) const noexcept {
  if (!armed()) return false;
  const auto bit = 1u << static_cast<std::uint32_t>(site);
  if ((site_mask_ & bit) == 0) return false;
  const std::uint64_t h =
      splitmix64(seed_ ^ splitmix64(static_cast<std::uint64_t>(site) + 1) ^
                 fnv1a(key));
  return h <= threshold_;
}

bool FaultInjector::should_fail(FaultSite site, std::string_view key) {
  if (!would_fail(site, key)) return false;
  injected_[static_cast<std::size_t>(site)].fetch_add(
      1, std::memory_order_relaxed);
  return true;
}

std::uint64_t FaultInjector::injected_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : injected_) total += c.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t FaultInjector::injected_at(FaultSite site) const noexcept {
  return injected_[static_cast<std::size_t>(site)].load(
      std::memory_order_relaxed);
}

void FaultInjector::reset_counts() noexcept {
  for (auto& c : injected_) c.store(0, std::memory_order_relaxed);
}

}  // namespace gnntrans::core
