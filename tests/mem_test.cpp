// Arena pool + Words unit and property tests (src/mem/): slot alignment,
// free-list recycling, oversize heap fallback, cross-thread reclamation
// and the O(1)-synchronization run-reclaim contract the Time Warp fossil
// collector and rollback path rely on.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "mem/pool.hpp"
#include "mem/words.hpp"

namespace pls::mem {
namespace {

std::uintptr_t addr(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

TEST(Pool, SlotsStartOnCacheLines) {
  Pool pool;
  // Every class, several blocks each: headers land on 64-byte boundaries
  // and payloads directly behind the 16-byte header.
  for (std::uint32_t n : {1u, 6u, 7u, 14u, 30u, 62u, 126u}) {
    for (int i = 0; i < 4; ++i) {
      BlockHeader* h = pool.alloc(n);
      EXPECT_EQ(addr(h) % 64, 0u) << "n=" << n;
      EXPECT_EQ(addr(payload_of(h)), addr(h) + sizeof(BlockHeader));
      EXPECT_GE(h->words, n);
      EXPECT_EQ(h->owner, &pool);
      pool.free_local(h);
    }
  }
}

TEST(Pool, ClassForRoundsUpAndOverflowsToHeap) {
  EXPECT_EQ(Pool::class_for(1), 0u);
  EXPECT_EQ(Pool::class_for(6), 0u);
  EXPECT_EQ(Pool::class_for(7), 1u);
  EXPECT_EQ(Pool::class_for(126), 4u);
  EXPECT_EQ(Pool::class_for(127), Pool::kHeapClass);
}

TEST(Pool, RecyclesFreedBlocksWithoutNewCarves) {
  Pool pool;
  BlockHeader* h = pool.alloc(14);
  pool.free_local(h);
  const PoolStats before = pool.snapshot();
  // Same class alloc must reuse the very slot just freed (LIFO list).
  BlockHeader* again = pool.alloc(10);
  EXPECT_EQ(again, h);
  const PoolStats after = pool.snapshot();
  EXPECT_EQ(after.carved, before.carved);
  EXPECT_EQ(after.recycled, before.recycled + 1);
  pool.free_local(again);
}

TEST(Pool, OversizeRequestsBypassThePool) {
  Pool pool;
  PoolScope scope(&pool);
  std::uint64_t* p = alloc_words(Pool::kMaxPooledWords + 1);
  EXPECT_EQ(header_of(p)->owner, nullptr);
  free_words(p);
  EXPECT_EQ(pool.snapshot().heap_fallbacks, 1u);
}

TEST(Pool, CrossThreadFreeRoutesHomeThroughRemoteStack) {
  Pool pool;
  std::uint64_t* payloads[8];
  {
    PoolScope scope(&pool);
    for (auto& p : payloads) p = alloc_words(30);
  }
  // A foreign thread (no pool installed) frees them one by one: each free
  // is a lock-free push onto the owner's remote stack.
  std::thread t([&] {
    for (auto* p : payloads) free_words(p);
  });
  t.join();
  PoolStats s = pool.snapshot();
  EXPECT_EQ(s.remote_blocks, 8u);
  EXPECT_EQ(s.remote_splices, 8u);  // no batching without a ReclaimScope
  EXPECT_EQ(s.local_frees, 0u);

  // The owner's next dry alloc drains the stack and recycles.
  PoolScope scope(&pool);
  std::uint64_t* p = alloc_words(30);
  EXPECT_EQ(pool.snapshot().recycled, 1u);
  free_words(p);
}

TEST(Pool, ReclaimScopeSplicesARunInOneCas) {
  // The rollback/fossil O(1) contract: releasing a run of K pooled blocks
  // under a ReclaimScope costs one remote splice per owning pool — not K.
  Pool pool;
  constexpr int kRun = 64;
  std::uint64_t* payloads[kRun];
  {
    PoolScope scope(&pool);
    for (auto& p : payloads) p = alloc_words(14);
  }
  std::thread t([&] {
    ReclaimScope rs;
    for (auto* p : payloads) free_words(p);
  });  // scope destruction flushes the chain
  t.join();
  PoolStats s = pool.snapshot();
  EXPECT_EQ(s.remote_blocks, static_cast<std::uint64_t>(kRun));
  EXPECT_EQ(s.remote_splices, 1u) << "a run must cost one CAS, not " << kRun;
}

TEST(Pool, ReclaimScopeOnOwnerThreadStaysLocal) {
  Pool pool;
  PoolScope scope(&pool);
  std::uint64_t* payloads[16];
  for (auto& p : payloads) p = alloc_words(6);
  {
    ReclaimScope rs;
    for (auto* p : payloads) free_words(p);
  }
  PoolStats s = pool.snapshot();
  EXPECT_EQ(s.remote_splices, 0u);
  EXPECT_EQ(s.local_frees, 16u);
  // All sixteen come back from the free list.
  for (auto& p : payloads) p = alloc_words(6);
  EXPECT_EQ(pool.snapshot().recycled, 16u);
  for (auto* p : payloads) free_words(p);
}

TEST(Pool, AllocWithoutScopeFallsBackToHeap) {
  // No pool installed: correctness is preserved via plain heap blocks.
  std::uint64_t* p = alloc_words(30);
  EXPECT_EQ(header_of(p)->owner, nullptr);
  p[0] = 42;
  p[29] = 43;
  free_words(p);
}

TEST(Words, InlineSingleWordNeverAllocates) {
  Pool pool;
  PoolScope scope(&pool);
  Words w(1, 0xAB);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0], 0xABu);
  Words copy = w;
  EXPECT_EQ(copy, w);
  const PoolStats s = pool.snapshot();
  EXPECT_EQ(s.carved + s.recycled + s.heap_fallbacks, 0u)
      << "size <= 1 must stay inline";
}

TEST(Words, EqualSizeAssignReusesTheBlock) {
  Pool pool;
  PoolScope scope(&pool);
  Words a(4, 1);
  Words b(4, 2);
  const std::uint64_t* block = a.data();
  const PoolStats before = pool.snapshot();
  a = b;  // same size: must overwrite in place (rollback restore path)
  EXPECT_EQ(a.data(), block);
  EXPECT_EQ(a, b);
  const PoolStats after = pool.snapshot();
  EXPECT_EQ(after.carved + after.recycled, before.carved + before.recycled);
}

TEST(Words, ValueSemanticsAndExactSizeEquality) {
  Words a(3, 7);
  Words b(4, 7);
  EXPECT_FALSE(a == b) << "equality is exact-size even within a class";
  b.resize(3);
  EXPECT_EQ(a, b);
  b.at(2) = 9;
  EXPECT_FALSE(a == b);

  Words expected(3, 7);
  expected.at(2) = 9;
  Words moved = static_cast<Words&&>(b);
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_EQ(moved, expected);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): spec'd reset

  Words grown(2, 5);
  grown.resize(6);
  EXPECT_EQ(grown[0], 5u);
  EXPECT_EQ(grown[1], 5u);
  EXPECT_EQ(grown[5], 0u) << "growth zero-fills";
}

TEST(Words, MigratesAcrossThreadsAndFreesRemotely) {
  Pool pool;
  Words w;
  {
    PoolScope scope(&pool);
    w.assign(14, 0xFEED);
  }
  std::thread t([moved = static_cast<Words&&>(w)]() mutable {
    EXPECT_EQ(moved.at(13), 0xFEEDu);
    moved = Words();  // destruction on a foreign thread
  });
  t.join();
  EXPECT_EQ(pool.snapshot().remote_blocks, 1u);
}

}  // namespace
}  // namespace pls::mem
