#include "mem/pool.hpp"

#include <new>

#include "util/check.hpp"

namespace pls::mem {
namespace {

thread_local Pool* tls_pool = nullptr;
thread_local ReclaimScope* tls_reclaim = nullptr;

constexpr std::size_t kLine = 64;

/// Slot stride for a class: header + capacity, rounded up to cache lines,
/// so every slot (and therefore every header) starts on a line boundary.
constexpr std::size_t slot_bytes(std::uint32_t cls) noexcept {
  const std::size_t raw =
      sizeof(BlockHeader) + std::size_t{Pool::kClassWords[cls]} * 8;
  return (raw + kLine - 1) / kLine * kLine;
}

/// Free-list link: while a block is free its first payload word holds the
/// next header pointer.
BlockHeader*& link_of(BlockHeader* h) noexcept {
  return *reinterpret_cast<BlockHeader**>(payload_of(h));
}

BlockHeader* heap_block(std::uint32_t n) {
  auto* h = static_cast<BlockHeader*>(
      ::operator new(sizeof(BlockHeader) + std::size_t{n} * 8));
  h->owner = nullptr;
  h->cls = Pool::kHeapClass;
  h->words = n;
  return h;
}

}  // namespace

static_assert(Pool::kSlabBytes >= 2 * slot_bytes(Pool::kNumClasses - 1),
              "slab too small for the largest size class");

Pool::~Pool() {
  for (void* s : slabs_) ::operator delete(s, std::align_val_t{kLine});
}

BlockHeader* Pool::carve(std::uint32_t cls) {
  const std::size_t stride = slot_bytes(cls);
  if (static_cast<std::size_t>(bump_end_ - bump_) < stride) {
    void* slab = ::operator new(kSlabBytes, std::align_val_t{kLine});
    slabs_.push_back(slab);
    ++stats_.slabs;
    stats_.slab_bytes += kSlabBytes;
    bump_ = static_cast<std::byte*>(slab);
    bump_end_ = bump_ + kSlabBytes;
  }
  auto* h = reinterpret_cast<BlockHeader*>(bump_);
  bump_ += stride;
  h->owner = this;
  h->cls = cls;
  h->words = kClassWords[cls];
  ++stats_.carved;
  return h;
}

BlockHeader* Pool::alloc(std::uint32_t n) {
  PLS_CHECK(n > 0);
  const std::uint32_t cls = class_for(n);
  if (cls == kHeapClass) {
    ++stats_.heap_fallbacks;
    return heap_block(n);
  }
  if (free_[cls] == nullptr &&
      remote_.load(std::memory_order_relaxed) != nullptr) {
    drain_remote();
  }
  if (BlockHeader* h = free_[cls]) {
    free_[cls] = link_of(h);
    ++stats_.recycled;
    return h;
  }
  return carve(cls);
}

void Pool::free_local(BlockHeader* h) noexcept {
  link_of(h) = free_[h->cls];
  free_[h->cls] = h;
  ++stats_.local_frees;
}

void Pool::free_local_chain(BlockHeader* head) noexcept {
  while (head != nullptr) {
    BlockHeader* next = link_of(head);
    free_local(head);
    head = next;
  }
}

void Pool::free_remote(BlockHeader* h) noexcept {
  free_remote_chain(h, h, 1);
}

void Pool::free_remote_chain(BlockHeader* head, BlockHeader* tail,
                             std::uint32_t count) noexcept {
  BlockHeader* top = remote_.load(std::memory_order_relaxed);
  do {
    link_of(tail) = top;
  } while (!remote_.compare_exchange_weak(top, head,
                                          std::memory_order_release,
                                          std::memory_order_relaxed));
  remote_blocks_.fetch_add(count, std::memory_order_relaxed);
  remote_splices_.fetch_add(1, std::memory_order_relaxed);
}

void Pool::drain_remote() noexcept {
  BlockHeader* h = remote_.exchange(nullptr, std::memory_order_acquire);
  while (h != nullptr) {
    BlockHeader* next = link_of(h);
    link_of(h) = free_[h->cls];
    free_[h->cls] = h;
    h = next;
  }
}

PoolStats Pool::snapshot() const noexcept {
  PoolStats s = stats_;
  s.remote_blocks = remote_blocks_.load(std::memory_order_relaxed);
  s.remote_splices = remote_splices_.load(std::memory_order_relaxed);
  return s;
}

PoolScope::PoolScope(Pool* p) noexcept : prev_(tls_pool) { tls_pool = p; }
PoolScope::~PoolScope() { tls_pool = prev_; }

std::uint64_t* alloc_words(std::uint32_t n) {
  Pool* p = tls_pool;
  BlockHeader* h = p != nullptr ? p->alloc(n) : heap_block(n);
  return payload_of(h);
}

void free_words(std::uint64_t* payload) noexcept {
  BlockHeader* h = header_of(payload);
  if (h->owner == nullptr) {
    ::operator delete(h);
    return;
  }
  if (ReclaimScope* rs = tls_reclaim) {
    rs->add(h);
    return;
  }
  if (h->owner == tls_pool) {
    h->owner->free_local(h);
  } else {
    h->owner->free_remote(h);
  }
}

ReclaimScope::ReclaimScope() noexcept : prev_(tls_reclaim) {
  tls_reclaim = this;
}

ReclaimScope::~ReclaimScope() {
  tls_reclaim = prev_;
  for (int i = 0; i < n_; ++i) flush(chains_[i]);
}

ReclaimScope* ReclaimScope::active() noexcept { return tls_reclaim; }

void ReclaimScope::add(BlockHeader* h) noexcept {
  for (int i = 0; i < n_; ++i) {
    if (chains_[i].owner == h->owner) {
      link_of(h) = chains_[i].head;
      chains_[i].head = h;
      ++chains_[i].count;
      return;
    }
  }
  if (n_ < kMaxOwners) {
    OwnerChain& c = chains_[n_++];
    c.owner = h->owner;
    c.head = c.tail = h;
    link_of(h) = nullptr;
    c.count = 1;
    return;
  }
  // More distinct owners than slots (never expected in practice): route
  // the straggler directly instead of growing.
  if (h->owner == tls_pool) {
    h->owner->free_local(h);
  } else {
    h->owner->free_remote(h);
  }
}

void ReclaimScope::flush(OwnerChain& c) noexcept {
  if (c.head == nullptr) return;
  if (c.owner == tls_pool) {
    c.owner->free_local_chain(c.head);
  } else {
    c.owner->free_remote_chain(c.head, c.tail, c.count);
  }
}

}  // namespace pls::mem
