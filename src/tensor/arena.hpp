/// \file arena.hpp
/// Scratch arena: a recycling pool for tensor value buffers.
///
/// An inference forward pass allocates the same sequence of activation
/// matrices every call; the arena turns those heap allocations into pool
/// lookups. While a ScratchArena::Scope is active on a thread, every tensor
/// value buffer created on that thread is drawn from the arena's free list
/// and returned to it when the tensor dies — even if the tensor outlives the
/// scope or is destroyed on another thread (the buffer travels back through a
/// shared, mutex-protected state). Training is unaffected: with no scope
/// active, allocation behaviour is exactly the pre-arena heap path.
///
/// Typical use (one arena per serving thread, reused across nets):
///   nn::Workspace ws;                       // owns a ScratchArena
///   for (net : batch) {
///     tensor::ScratchArena::Scope scope(ws.arena);
///     ... forward pass ...
///   }                                        // buffers recycled each net
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace gnntrans::tensor {

namespace detail {
struct ArenaState;
}  // namespace detail

/// A pool of float buffers keyed by capacity. Movable, not copyable; the
/// backing state is shared with outstanding tensors, so buffers released
/// after the arena handle is destroyed are still reclaimed (freed with the
/// state once the last tensor dies).
class ScratchArena {
 public:
  /// Observability counters (bytes measure requested sizes, not capacities).
  struct Stats {
    std::size_t reused = 0;          ///< acquisitions served from the pool
    std::size_t allocated = 0;       ///< acquisitions that hit the heap
    std::size_t live_bytes = 0;      ///< bytes currently checked out
    std::size_t peak_bytes = 0;      ///< high-water mark of live_bytes
    std::size_t pooled_buffers = 0;  ///< buffers currently parked in the pool
  };

  ScratchArena();
  ScratchArena(ScratchArena&&) noexcept = default;
  ScratchArena& operator=(ScratchArena&&) noexcept = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;
  ~ScratchArena() = default;

  [[nodiscard]] Stats stats() const;

  /// RAII: routes this thread's tensor allocations through \p arena. Scopes
  /// nest (the previous arena is restored on destruction); construction and
  /// destruction must happen on the same thread.
  class Scope {
   public:
    explicit Scope(ScratchArena& arena);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::shared_ptr<detail::ArenaState> previous_;
  };

 private:
  std::shared_ptr<detail::ArenaState> state_;
};

/// An op's internal scratch: a zeroed buffer of floats drawn from this
/// thread's active arena and parked back in it on destruction, or a plain heap
/// buffer when no arena is active. Lets a kernel keep row buffers out of the
/// per-call heap path without becoming a tensor on the tape.
class ScratchBuffer {
 public:
  explicit ScratchBuffer(std::size_t n);
  ~ScratchBuffer();
  ScratchBuffer(const ScratchBuffer&) = delete;
  ScratchBuffer& operator=(const ScratchBuffer&) = delete;

  [[nodiscard]] float* data() noexcept { return values_.data(); }

 private:
  std::shared_ptr<detail::ArenaState> state_;
  std::vector<float> values_;
};

namespace detail {

/// Arena installed on this thread (null when none). Read by tensor.cpp on
/// every value-buffer allocation.
[[nodiscard]] const std::shared_ptr<ArenaState>& active_arena() noexcept;

/// Returns a zeroed buffer of \p n floats, recycling the smallest pooled
/// buffer whose capacity covers \p n when one exists.
[[nodiscard]] std::vector<float> acquire_values(
    const std::shared_ptr<ArenaState>& state, std::size_t n);

/// Parks \p buffer back in the pool. Safe from any thread.
void release_values(const std::shared_ptr<ArenaState>& state,
                    std::vector<float>&& buffer) noexcept;

}  // namespace detail

}  // namespace gnntrans::tensor
