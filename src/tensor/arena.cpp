#include "tensor/arena.hpp"

#include <algorithm>
#include <mutex>

namespace gnntrans::tensor {

namespace detail {

struct ArenaState {
  mutable std::mutex mutex;
  std::vector<std::vector<float>> pool;
  ScratchArena::Stats stats;
};

namespace {
thread_local std::shared_ptr<ArenaState> g_active;
}  // namespace

const std::shared_ptr<ArenaState>& active_arena() noexcept { return g_active; }

std::vector<float> acquire_values(const std::shared_ptr<ArenaState>& state,
                                  std::size_t n) {
  std::vector<float> buffer;
  {
    std::scoped_lock lock(state->mutex);
    // Best fit: smallest pooled buffer whose capacity covers n, so large
    // buffers stay available for large requests.
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::size_t best = kNone;
    for (std::size_t i = 0; i < state->pool.size(); ++i) {
      const std::size_t cap = state->pool[i].capacity();
      if (cap < n) continue;
      if (best == kNone || cap < state->pool[best].capacity()) best = i;
    }
    if (best != kNone) {
      buffer = std::move(state->pool[best]);
      state->pool.erase(state->pool.begin() +
                        static_cast<std::ptrdiff_t>(best));
      ++state->stats.reused;
    } else {
      ++state->stats.allocated;
    }
    state->stats.live_bytes += n * sizeof(float);
    state->stats.peak_bytes =
        std::max(state->stats.peak_bytes, state->stats.live_bytes);
  }
  buffer.assign(n, 0.0f);
  return buffer;
}

void release_values(const std::shared_ptr<ArenaState>& state,
                    std::vector<float>&& buffer) noexcept {
  try {
    std::scoped_lock lock(state->mutex);
    const std::size_t bytes = buffer.size() * sizeof(float);
    state->stats.live_bytes -= std::min(bytes, state->stats.live_bytes);
    state->pool.push_back(std::move(buffer));
  } catch (...) {
    // Pool growth failed: drop the buffer (plain deallocation) rather than
    // propagate out of a destructor path.
  }
}

}  // namespace detail

ScratchArena::ScratchArena() : state_(std::make_shared<detail::ArenaState>()) {}

ScratchArena::Stats ScratchArena::stats() const {
  std::scoped_lock lock(state_->mutex);
  Stats out = state_->stats;
  out.pooled_buffers = state_->pool.size();
  return out;
}

ScratchArena::Scope::Scope(ScratchArena& arena)
    : previous_(std::move(detail::g_active)) {
  detail::g_active = arena.state_;
}

ScratchArena::Scope::~Scope() { detail::g_active = std::move(previous_); }

ScratchBuffer::ScratchBuffer(std::size_t n) : state_(detail::active_arena()) {
  if (state_)
    values_ = detail::acquire_values(state_, n);
  else
    values_.assign(n, 0.0f);
}

ScratchBuffer::~ScratchBuffer() {
  if (state_) detail::release_values(state_, std::move(values_));
}

}  // namespace gnntrans::tensor
