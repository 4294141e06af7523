// Documentation honesty check: the README's quickstart snippet, compiled
// and executed as written (modulo the elided edges).  If the public API
// drifts, this file breaks before the README lies.
#include <gtest/gtest.h>

#include "essentials.hpp"

TEST(ReadmeQuickstart, CompilesAndRunsAsDocumented) {
  using namespace essentials;

  graph::coo_t<> coo;                     // edge list
  coo.num_rows = coo.num_cols = 5;
  coo.push_back(0, 1, 1.0f);              // src, dst, weight
  coo.push_back(1, 2, 1.0f);
  coo.push_back(0, 3, 4.0f);
  coo.push_back(3, 4, 1.0f);
  coo.push_back(2, 4, 1.0f);
  auto g = graph::from_coo<graph::graph_csr>(std::move(coo));

  // Parallel single-source shortest paths, exactly the paper's shape:
  // frontier seed -> push the min-plus relaxation -> loop until the
  // frontier drains.
  auto result = algorithms::sssp(execution::par, g, /*source=*/0);

  ASSERT_EQ(result.distances.size(), 5u);
  EXPECT_FLOAT_EQ(result.distances[4], 3.0f);  // 0-1-2-4 beats 0-3-4

  // And the documented lambda contract: atomic::min returns the old value.
  float cell = 7.0f;
  EXPECT_FLOAT_EQ(atomic::min(&cell, 3.0f), 7.0f);
  EXPECT_FLOAT_EQ(cell, 3.0f);

  // The tutorial's policy-swap claim: same call shape, sequential policy.
  auto serial = algorithms::sssp(execution::seq, g, 0);
  EXPECT_EQ(serial.distances, result.distances);
}
