#pragma once
// Cache-line-aligned slab/arena pools for the Time Warp hot path.
//
// Motivation (ROADMAP "hot-path memory overhaul", mxtasking idiom): at
// millions of events per second the kernel's per-event and per-snapshot
// heap traffic is the ceiling.  Every wide payload the kernel handles —
// multi-word event lanes, wide LP state words, their snapshot copies —
// is a small block of `uint64_t`s with a short, node-local lifetime.
// This module gives each node thread its own arena of such blocks:
//
//   * slabs are 64-byte aligned and carved into fixed size classes whose
//     slots start on cache-line boundaries (the 16-byte block header and
//     the first six payload words share the slot's first line);
//   * freed blocks go onto per-class free lists and are recycled without
//     touching the global allocator;
//   * blocks freed by *another* thread (an event shipped across nodes and
//     fossil-collected at the receiver) are pushed onto the owning pool's
//     lock-free remote stack — a Treiber stack the owner splices back into
//     its local lists in O(1) per drain;
//   * whole runs of blocks (a fossil-collection sweep, a rollback's
//     discarded snapshots) are reclaimed through a ReclaimScope that links
//     them into per-owner chains and releases each chain with a single
//     splice — one CAS per remote owner per run, not one per block.
//
// Ownership invariants (see src/mem/README.md for the full contract):
//   1. A block remembers its owning pool in its header; `free_block` may
//      be called from any thread and routes home.
//   2. A pool must outlive every block it carved.  The kernel guarantees
//      this by declaring its pools before the per-LP runtimes.  The
//      sequential reference owns no pool: it keeps its state in flat
//      word arrays, and its exported final states draw from the caller's
//      current pool (or the heap).
//   3. Allocation with no current pool (main thread, tests) falls back
//      to the global heap; such blocks carry a null owner and are deleted
//      immediately on free.  Correctness never depends on a pool being
//      installed — only speed does.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pls::mem {

class Pool;

/// Header preceding every pooled (or heap-fallback) payload.  While a
/// block sits on a free list its first payload word doubles as the link,
/// so the header stays 16 bytes and a 64-byte slot still carries 6 words.
struct alignas(16) BlockHeader {
  Pool* owner = nullptr;     ///< null = heap fallback (operator new)
  std::uint32_t cls = 0;     ///< size-class index (kHeapClass if heap)
  std::uint32_t words = 0;   ///< payload capacity in words
};
static_assert(sizeof(BlockHeader) == 16);

inline std::uint64_t* payload_of(BlockHeader* h) noexcept {
  return reinterpret_cast<std::uint64_t*>(h + 1);
}
inline BlockHeader* header_of(std::uint64_t* payload) noexcept {
  return reinterpret_cast<BlockHeader*>(payload) - 1;
}

/// Counters for tests and the kernel's per-node memory stats.  The two
/// remote-side counters are written by foreign threads and kept in
/// atomics; snapshot() flattens everything for reporting.
struct PoolStats {
  std::uint64_t slabs = 0;           ///< slabs allocated
  std::uint64_t slab_bytes = 0;      ///< bytes in those slabs
  std::uint64_t carved = 0;          ///< blocks carved fresh from a slab
  std::uint64_t recycled = 0;        ///< allocs served from a free list
  std::uint64_t local_frees = 0;     ///< frees routed straight to a list
  std::uint64_t heap_fallbacks = 0;  ///< oversize requests
  std::uint64_t remote_blocks = 0;   ///< foreign frees drained back home
  std::uint64_t remote_splices = 0;  ///< CAS pushes (a whole chain = 1)
};

/// One node thread's arena.  alloc/local free/drain are owner-thread
/// only; the remote free stack may be pushed from any thread.
class Pool {
 public:
  /// Size-class payload capacities in words; slot strides are the next
  /// cache-line multiples (64 B .. 1 KiB).  Requests beyond the largest
  /// class fall back to the heap.
  static constexpr std::uint32_t kClassWords[] = {6, 14, 30, 62, 126};
  static constexpr int kNumClasses = 5;
  static constexpr std::uint32_t kHeapClass = ~std::uint32_t{0};
  static constexpr std::uint32_t kMaxPooledWords = 126;
  /// Per-slab carve size.
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  Pool() = default;
  ~Pool();
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Allocate a block of >= n payload words (owner thread only).
  BlockHeader* alloc(std::uint32_t n);

  /// Owner-thread free: push onto the class free list.
  void free_local(BlockHeader* h) noexcept;

  /// Foreign-thread free: push onto the lock-free remote stack (single
  /// block chain).  Safe from any thread.
  void free_remote(BlockHeader* h) noexcept;

  /// Foreign-thread bulk free: splice a pre-linked chain (payload word 0
  /// = next header) in one CAS, regardless of length.
  void free_remote_chain(BlockHeader* head, BlockHeader* tail,
                         std::uint32_t count) noexcept;

  /// Owner-thread bulk free of a pre-linked chain.
  void free_local_chain(BlockHeader* head) noexcept;

  /// Splice the remote stack into the local free lists (owner thread).
  /// Called automatically when a class list runs dry.
  void drain_remote() noexcept;

  PoolStats snapshot() const noexcept;

  /// Size class serving n words, or kHeapClass if none.
  static std::uint32_t class_for(std::uint32_t n) noexcept {
    for (int c = 0; c < kNumClasses; ++c) {
      if (n <= kClassWords[c]) return static_cast<std::uint32_t>(c);
    }
    return kHeapClass;
  }

 private:
  BlockHeader* carve(std::uint32_t cls);

  BlockHeader* free_[kNumClasses] = {};
  std::atomic<BlockHeader*> remote_{nullptr};
  std::byte* bump_ = nullptr;
  std::byte* bump_end_ = nullptr;
  std::vector<void*> slabs_;
  PoolStats stats_;
  std::atomic<std::uint64_t> remote_blocks_{0};
  std::atomic<std::uint64_t> remote_splices_{0};
};

/// RAII install of a pool as the calling thread's allocation target.
/// Nests; restores the previous pool on destruction.
class PoolScope {
 public:
  explicit PoolScope(Pool* p) noexcept;
  ~PoolScope();
  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

 private:
  Pool* prev_;
};

/// Allocate n (> 0) payload words from the current pool, or the heap when
/// none is installed / n exceeds the largest class.
std::uint64_t* alloc_words(std::uint32_t n);

/// Free a payload from any thread: local push, remote push, chain into an
/// active ReclaimScope, or plain delete for heap-fallback blocks.
void free_words(std::uint64_t* payload) noexcept;

/// RAII batcher for run reclamation (fossil sweeps, rollback discards):
/// while a scope is active on this thread, every pooled free_words chains
/// the block per owning pool; destruction releases each chain with one
/// splice — O(1) synchronization per owner per run.  Heap-fallback blocks
/// are deleted immediately (they have no list to chain into).  Nests.
class ReclaimScope {
 public:
  ReclaimScope() noexcept;
  ~ReclaimScope();
  ReclaimScope(const ReclaimScope&) = delete;
  ReclaimScope& operator=(const ReclaimScope&) = delete;

  /// Chain a pooled block (internal use by free_words).
  void add(BlockHeader* h) noexcept;

  static ReclaimScope* active() noexcept;

 private:
  struct OwnerChain {
    Pool* owner = nullptr;
    BlockHeader* head = nullptr;
    BlockHeader* tail = nullptr;
    std::uint32_t count = 0;
  };
  void flush(OwnerChain& c) noexcept;

  static constexpr int kMaxOwners = 8;  ///< > any realistic node count hit
  OwnerChain chains_[kMaxOwners];
  int n_ = 0;
  ReclaimScope* prev_;
};

}  // namespace pls::mem
