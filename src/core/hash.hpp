/// \file hash.hpp
/// The repo's one stable hash family: FNV-1a (over bytes, or folding 64-bit
/// words) plus the splitmix64 finalizer.
///
/// Every hash-derived decision uses it: content-addressed cache keys
/// (rcnet::RcNet::validate, features::content_hash), estimate-cache shard
/// routing, fault-injection decisions, quality shadow picks and request
/// trace ids. All are pure functions of their inputs and identical across
/// platforms and runs (std::hash is neither); tests/test_hash.cpp pins the
/// cache keys, decisions and trace ids to golden vectors.
///
/// Header-only on purpose: rcnet and telemetry sit below gnntrans_core.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace gnntrans::core {

/// Not the published FNV-64 offset basis (14695981039346656037): one digit
/// short. Any basis works for FNV-1a, and every cache key, fault decision
/// and sampled-net set in the repo is built on this one, so it stays.
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a over the bytes of \p s.
constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = kFnvBasis;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// FNV word fold: one 64-bit word per step (start from kFnvBasis).
constexpr void fnv_fold(std::uint64_t& h, std::uint64_t word) noexcept {
  h = (h ^ word) * kFnvPrime;
}

/// Doubles fold by raw bit pattern, so values one ULP apart hash apart.
constexpr void fnv_fold(std::uint64_t& h, double value) noexcept {
  fnv_fold(h, std::bit_cast<std::uint64_t>(value));
}

/// splitmix64 finalizer (no increment): avalanches an already-accumulated
/// hash.
constexpr std::uint64_t splitmix64_finalize(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// splitmix64 step: golden-ratio increment, then the finalizer.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  return splitmix64_finalize(x + 0x9e3779b97f4a7c15ull);
}

}  // namespace gnntrans::core
