// Tests for the node-scan kernel (rtree/scan_kernel.h): every gather
// (portable, AVX2) paired with every sweep (portable, AVX2) returns exactly
// the slots NodeView::Intersects accepts, for every entry count from 0 to
// 130 (so the 64-slot validity words are crossed twice), on nodes mixing
// random rects, degenerate points, touching edges, empty and inverted
// entries and NaN coordinates. The AVX2 variants run only on CPUs that have AVX2.

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rtb.h"
#include "rtree/scan_kernel.h"

namespace rtb::rtree {
namespace {

using geom::Rect;

using GatherFn = void (*)(NodeView, ScanScratch*);
using SweepFn = size_t (*)(const ScanScratch&, const Rect&, uint32_t*);

template <typename Fn>
struct Variant {
  std::string name;
  Fn fn;
};

std::vector<Variant<GatherFn>> Gathers() {
  std::vector<Variant<GatherFn>> v = {{"portable", detail::GatherPortable}};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) v.push_back({"avx2", detail::GatherAvx2});
#endif
  return v;
}

std::vector<Variant<SweepFn>> Sweeps() {
  std::vector<Variant<SweepFn>> v = {{"portable", detail::SweepPortable}};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) v.push_back({"avx2", detail::SweepAvx2});
#endif
  return v;
}

Rect RandomRect(Rng& rng, double max_side) {
  const double x = rng.NextDouble() * (1.0 - max_side);
  const double y = rng.NextDouble() * (1.0 - max_side);
  return Rect(x, y, x + rng.NextDouble() * max_side,
              y + rng.NextDouble() * max_side);
}

// One entry of a test node. Most are ordinary rects; the rest are the edge
// cases both implementations must agree on.
Rect RandomEntry(Rng& rng) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rect r = RandomRect(rng, 0.3);
  switch (rng.NextUint64() % 12) {
    case 0:
      return Rect::Empty();
    case 1:
      return Rect::FromPoint({rng.NextDouble(), rng.NextDouble()});
    case 2:
      return Rect(0.5, 0.5, 0.5, 0.5);  // Touches the fixed queries' edges.
    case 3: {
      double* coords[] = {&r.lo.x, &r.lo.y, &r.hi.x, &r.hi.y};
      *coords[rng.NextUint64() % 4] = nan;
      return r;
    }
    case 4:  // Inverted on one axis: empty, yet each bound may overlap q.
      return rng.NextUint64() % 2 == 0 ? Rect(r.hi.x, r.lo.y, r.lo.x, r.hi.y)
                                       : Rect(r.lo.x, r.hi.y, r.hi.x, r.lo.y);
    default:
      return r;
  }
}

std::vector<Rect> Queries(Rng& rng) {
  return {Rect(0.0, 0.0, 1.0, 1.0),   // Everything non-empty and NaN-free.
          Rect(0.5, 0.5, 0.75, 0.75),  // Shares an edge/corner with (0.5,0.5).
          Rect(0.25, 0.25, 0.5, 0.5),
          Rect::FromPoint({rng.NextDouble(), rng.NextDouble()}),
          RandomRect(rng, 0.6), RandomRect(rng, 0.6)};
}

TEST(ScanKernelTest, EveryVariantMatchesNodeViewIntersects) {
  Rng rng(202);
  std::vector<uint8_t> page(8192);
  std::vector<uint32_t> matches(NodeCapacity(page.size()));
  ASSERT_GE(matches.size(), 130u);

  for (size_t count = 0; count <= 130; ++count) {
    Node node;
    node.level = static_cast<uint16_t>(count % 3);
    for (size_t i = 0; i < count; ++i) {
      node.entries.push_back(Entry{RandomEntry(rng), rng.NextUint64()});
    }
    ASSERT_TRUE(SerializeNode(node, page.size(), page.data()).ok());
    auto view = NodeView::Create(page.data(), page.size());
    ASSERT_TRUE(view.ok());
    const std::vector<Rect> queries = Queries(rng);

    for (const auto& gather : Gathers()) {
      ScanScratch scratch;
      gather.fn(*view, &scratch);
      ASSERT_EQ(scratch.count(), count) << gather.name;
      ASSERT_EQ(scratch.level(), node.level) << gather.name;
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(scratch.id(i), node.entries[i].id) << gather.name << i;
      }
      for (const auto& sweep : Sweeps()) {
        for (const Rect& q : queries) {
          std::vector<uint32_t> expected;
          for (size_t i = 0; i < count; ++i) {
            if (view->Intersects(i, q)) {
              expected.push_back(static_cast<uint32_t>(i));
            }
          }
          const size_t n = sweep.fn(scratch, q, matches.data());
          ASSERT_EQ(std::vector<uint32_t>(matches.begin(),
                                          matches.begin() + n),
                    expected)
              << "gather " << gather.name << " sweep " << sweep.name
              << " count " << count;
        }
      }
    }
  }
}

TEST(ScanKernelTest, NanEntriesNeverMatch) {
  // An entry with a NaN in any coordinate matches nothing, even a query
  // covering the whole plane, in NodeView::Intersects and every variant.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<uint8_t> page(4096);
  Node node;
  node.level = 0;
  node.entries = {{Rect(nan, 0.0, 1.0, 1.0), 0}, {Rect(0.0, nan, 1.0, 1.0), 1},
                  {Rect(0.0, 0.0, nan, 1.0), 2}, {Rect(0.0, 0.0, 1.0, nan), 3},
                  {Rect(0.0, 0.0, 1.0, 1.0), 4}};
  ASSERT_TRUE(SerializeNode(node, page.size(), page.data()).ok());
  auto view = NodeView::Create(page.data(), page.size());
  ASSERT_TRUE(view.ok());
  const Rect plane(-inf, -inf, inf, inf);
  for (size_t i = 0; i < 4; ++i) EXPECT_FALSE(view->Intersects(i, plane)) << i;
  EXPECT_TRUE(view->Intersects(4, plane));

  uint32_t matches[8];
  for (const auto& gather : Gathers()) {
    ScanScratch scratch;
    gather.fn(*view, &scratch);
    for (const auto& sweep : Sweeps()) {
      ASSERT_EQ(sweep.fn(scratch, plane, matches), 1u)
          << gather.name << " " << sweep.name;
      EXPECT_EQ(matches[0], 4u);
    }
  }
}

TEST(ScanKernelTest, ReloadShrinksCount) {
  // A scratch reused across pages must not leak state from a bigger node
  // into a smaller one (buffers only grow; count/validity must not).
  std::vector<uint8_t> page(4096);
  Node big;
  big.level = 0;
  for (size_t i = 0; i < 90; ++i) {
    big.entries.push_back(Entry{Rect(0.0, 0.0, 1.0, 1.0), i});
  }
  Node small;
  small.level = 0;
  small.entries.push_back(Entry{Rect(0.0, 0.0, 0.1, 0.1), 7});

  const Rect everywhere(0.0, 0.0, 1.0, 1.0);
  std::vector<uint32_t> matches(NodeCapacity(page.size()));
  for (const auto& gather : Gathers()) {
    ScanScratch scratch;
    ASSERT_TRUE(SerializeNode(big, page.size(), page.data()).ok());
    gather.fn(*NodeView::Create(page.data(), page.size()), &scratch);
    ASSERT_EQ(scratch.count(), 90u);
    ASSERT_TRUE(SerializeNode(small, page.size(), page.data()).ok());
    gather.fn(*NodeView::Create(page.data(), page.size()), &scratch);
    ASSERT_EQ(scratch.count(), 1u);
    for (const auto& sweep : Sweeps()) {
      ASSERT_EQ(sweep.fn(scratch, everywhere, matches.data()), 1u)
          << gather.name << " " << sweep.name;
      EXPECT_EQ(matches[0], 0u);
    }
  }
}

}  // namespace
}  // namespace rtb::rtree
